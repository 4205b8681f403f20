"""End-to-end CLI behavior: pipeline smoke, exit codes, determinism."""

import io
import json
import math
import re
import subprocess
import sys
import typing
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fbrnn.model

from fbrnn.candidates import build_examples, load_lexicon
from fbrnn.corpus import load_corpus, load_label_set
from fbrnn.cli import (
    _CONFIG_KEYS,
    _resolve_run_config,
    _train_config_from,
    build_parser,
    main,
)

FIXTURES = Path(__file__).parent / "fixtures"


def run_cli(*argv):
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("synth")
    assert run_cli("synth", "--out", out, "--sentences", 60, "--seed", 3) == 0
    return out


@pytest.fixture(scope="module")
def train_cfg_file(tmp_path_factory, synth_dir):
    cfg_dir = tmp_path_factory.mktemp("cfg")
    path = cfg_dir / "run.cfg"
    path.write_text(
        "\n".join(
            [
                "# small, fast run",
                "cell = gru",
                "hidden_size = 10",
                "word_dim = 8",
                "branch_dim = 4",
                "dropout = 0.2",
                "lr = 0.003",
                "max_epochs = 6",
                "patience = 6",
                "seed = 5",
                f"train_corpus = {synth_dir / 'train.jsonl'}",
                f"dev_corpus = {synth_dir / 'dev.jsonl'}",
                f"labels = {synth_dir / 'labels.json'}",
            ]
        )
        + "\n"
    )
    return path


@pytest.fixture(scope="module")
def trained_run(train_cfg_file, tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("runs")
    assert run_cli("train", "--config", train_cfg_file, "--out-dir", out_dir) == 0
    (run_dir,) = [p for p in out_dir.iterdir() if p.is_dir()]
    return run_dir


class TestSynth:
    def test_outputs_exist(self, synth_dir):
        for name in ("train.jsonl", "dev.jsonl", "labels.json", "paraphrases.tsv"):
            assert (synth_dir / name).is_file()

    def test_positional_grammar(self, tmp_path):
        assert (
            run_cli(
                "synth", "--out", tmp_path, "--grammar", "positional", "--sentences", 20
            )
            == 0
        )
        labels = json.loads((tmp_path / "labels.json").read_text())
        assert labels == ["Lead.Strike"]

    @pytest.mark.parametrize(
        "bad, message",
        [(("--dev-fraction", 2, "--sentences", 5), "dev_fraction"),
         (("--sentences", -1), "sentence count"),
         (("--grammar", "positional", "--dev-fraction", 2, "--sentences", 5), "dev_fraction"),
         (("--grammar", "positional", "--sentences", -1), "sentence count"),
         (("--negative-rate", 5), "negative rate")],
    )
    def test_rejected_settings_write_nothing(self, tmp_path, capsys, bad, message):
        out = tmp_path / "X"
        assert run_cli("synth", "--out", out, *bad) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert not out.exists()


class TestLexiconAndCandidates:
    def test_build_lexicon(self, synth_dir, tmp_path, capsys):
        code = run_cli(
            "build-lexicon",
            "--corpus", synth_dir / "train.jsonl",
            "--labels", synth_dir / "labels.json",
            "--paraphrases", synth_dir / "paraphrases.tsv",
            "--out", tmp_path / "lexicon.json",
        )
        assert code == 0
        data = json.loads((tmp_path / "lexicon.json").read_text())
        assert data["entries"]
        assert "lexicon:" in capsys.readouterr().out

    def test_candidate_dump(self, synth_dir, tmp_path):
        lex_path = tmp_path / "lexicon.json"
        run_cli(
            "build-lexicon",
            "--corpus", synth_dir / "train.jsonl",
            "--labels", synth_dir / "labels.json",
            "--out", lex_path,
        )
        out = tmp_path / "cands.jsonl"
        code = run_cli(
            "candidates",
            "--corpus", synth_dir / "train.jsonl",
            "--labels", synth_dir / "labels.json",
            "--lexicon", lex_path,
            "--out", out,
        )
        assert code == 0
        lines = [json.loads(l) for l in out.read_text().splitlines()]
        assert lines
        assert all("tokens" in l and "candidates" in l for l in lines)
        some = [c for l in lines for c in l["candidates"]]
        assert any(c["label"] for c in some)
        assert all(c["start"] <= c["end"] for c in some)
        # one line per sentence, in corpus order, holding its `build_examples` candidates
        labels = load_label_set(synth_dir / "labels.json")
        corpus = load_corpus(synth_dir / "train.jsonl", labels)
        expected = [[] for _ in corpus]
        for ex in build_examples(corpus, load_lexicon(lex_path), labels):
            c = ex.candidate
            expected[ex.sentence_index].append([c.start, c.end, list(c.types)])
        assert len(lines) == len(corpus) and [] in expected
        for line, sentence, cands in zip(lines, corpus, expected):
            assert [t["t"] for t in line["tokens"]] == [t.text for t in sentence.tokens]
            assert [[c["start"], c["end"], c["label"]] for c in line["candidates"]] == cands

    @pytest.mark.parametrize("max_len", [0, -2])
    def test_candidate_dump_rejects_max_nugget_len_below_one(
        self, synth_dir, tmp_path, capsys, max_len
    ):
        """As `train` does: exit 1 with one error line, and no output."""
        lex_path = tmp_path / "lexicon.json"
        run_cli(
            "build-lexicon",
            "--corpus", synth_dir / "train.jsonl",
            "--labels", synth_dir / "labels.json",
            "--out", lex_path,
        )
        capsys.readouterr()
        out = tmp_path / "cands.jsonl"
        code = run_cli(
            "candidates",
            "--corpus", synth_dir / "train.jsonl",
            "--labels", synth_dir / "labels.json",
            "--lexicon", lex_path,
            "--max-nugget-len", max_len,
            "--out", out,
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "max_nugget_len" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_candidate_dump_rejects_max_nugget_len_below_one_on_an_empty_corpus(
        self, synth_dir, tmp_path, capsys
    ):
        """The check comes before the sentence loop, so a corpus without
        sentences cannot skip it."""
        lex_path = tmp_path / "lexicon.json"
        run_cli(
            "build-lexicon",
            "--corpus", synth_dir / "train.jsonl",
            "--labels", synth_dir / "labels.json",
            "--out", lex_path,
        )
        capsys.readouterr()
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text("")
        out = tmp_path / "cands.jsonl"
        code = run_cli(
            "candidates",
            "--corpus", corpus,
            "--labels", synth_dir / "labels.json",
            "--lexicon", lex_path,
            "--max-nugget-len", 0,
            "--out", out,
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "max_nugget_len" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_candidate_dump_of_an_empty_corpus_is_an_empty_file(self, synth_dir, tmp_path):
        """One line per sentence: no sentence, no line, not one blank line."""
        lex_path = tmp_path / "lexicon.json"
        run_cli(
            "build-lexicon",
            "--corpus", synth_dir / "train.jsonl",
            "--labels", synth_dir / "labels.json",
            "--out", lex_path,
        )
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text("")
        out = tmp_path / "cands.jsonl"
        code = run_cli(
            "candidates",
            "--corpus", corpus,
            "--labels", synth_dir / "labels.json",
            "--lexicon", lex_path,
            "--out", out,
        )
        assert code == 0
        assert out.read_bytes() == b""


class TestTrainEvaluatePredict:
    def test_run_dir_artifacts(self, trained_run):
        for name in (
            "checkpoint.fbrnn",
            "trainlog.csv",
            "lexicon.json",
            "config.resolved",
            "run_info.json",
        ):
            assert (trained_run / name).is_file()

    def test_trainlog_csv_schema(self, trained_run):
        lines = (trained_run / "trainlog.csv").read_text().splitlines()
        assert lines[0] == "epoch,loss,dev_p,dev_r,dev_f1,seconds"

    def test_rerun_is_byte_identical(self, train_cfg_file, trained_run, tmp_path):
        first = (trained_run / "trainlog.csv").read_bytes()
        assert run_cli("train", "--config", train_cfg_file, "--out-dir", tmp_path) == 0
        (rerun,) = [p for p in tmp_path.iterdir() if p.is_dir()]
        assert (rerun / "trainlog.csv").read_bytes() == first

    def test_evaluate_checkpoint(self, synth_dir, trained_run, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        code = run_cli(
            "evaluate",
            "--checkpoint", trained_run / "checkpoint.fbrnn",
            "--corpus", synth_dir / "dev.jsonl",
            "--out", report_path,
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "F1:" in out
        report = json.loads(report_path.read_text())
        assert set(report) == {"tp", "pred", "gold", "p", "r", "f1"}

    def test_predict_then_evaluate_predictions(self, synth_dir, trained_run, tmp_path):
        preds = tmp_path / "preds.jsonl"
        assert (
            run_cli(
                "predict",
                "--checkpoint", trained_run / "checkpoint.fbrnn",
                "--corpus", synth_dir / "dev.jsonl",
                "--out", preds,
            )
            == 0
        )
        assert preds.is_file()
        code = run_cli(
            "evaluate",
            "--predictions", preds,
            "--labels", synth_dir / "labels.json",
            "--corpus", synth_dir / "dev.jsonl",
        )
        assert code == 0

    def test_predictions_equal_to_gold_score_100(self, synth_dir, tmp_path, capsys):
        labels = json.loads((synth_dir / "labels.json").read_text())
        gold_preds = []
        for i, line in enumerate(
            (synth_dir / "dev.jsonl").read_text().splitlines()
        ):
            sentence = json.loads(line)
            for nugget in sentence["nuggets"]:
                gold_preds.append(
                    {
                        "sentence": i,
                        "start": nugget["start"],
                        "end": nugget["end"],
                        "types": nugget["types"],
                    }
                )
        preds = tmp_path / "gold_preds.jsonl"
        preds.write_text("\n".join(json.dumps(p) for p in gold_preds) + "\n")
        code = run_cli(
            "evaluate",
            "--predictions", preds,
            "--labels", synth_dir / "labels.json",
            "--corpus", synth_dir / "dev.jsonl",
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "P: 100.00" in out and "R: 100.00" in out and "F1: 100.00" in out


    @pytest.mark.parametrize("char", ["\u2028", "\x85"])
    def test_raw_line_separators_in_corpus_and_predictions_are_data(
        self, synth_dir, tmp_path, capsys, char
    ):
        """Both JSON-lines files break at "\\n" alone: a raw U+2028 or U+0085
        inside a string (a token, a prediction's mention) is data, and the
        line numbers after it stay right."""
        types = json.loads((synth_dir / "labels.json").read_text())[:1]
        sentence = {"tokens": [{"t": "they"}, {"t": f"met{char}up"}],
                    "nuggets": [{"start": 1, "end": 1, "types": types}]}
        record = {"sentence": 0, "start": 1, "end": 1, "types": types, "mention": f"met{char}up"}
        corpus, preds = tmp_path / "corpus.jsonl", tmp_path / "preds.jsonl"
        corpus.write_text(json.dumps(sentence, ensure_ascii=False) + "\n", encoding="utf-8")
        preds.write_text(json.dumps(record, ensure_ascii=False) + "\n", encoding="utf-8")
        argv = ["evaluate", "--predictions", preds, "--labels", synth_dir / "labels.json",
                "--corpus", corpus]
        assert run_cli(*argv) == 0
        assert "F1: 100.00" in capsys.readouterr().out
        with preds.open("a", encoding="utf-8") as f:
            f.write('{"sentence": 1}\n')
        assert run_cli(*argv) == 2
        assert "preds.jsonl:2: sentence 1 is not in the corpus" in capsys.readouterr().err


class TestTrainVariants:
    def test_no_dev_split_and_pretrained_coverage(self, synth_dir, tmp_path, capsys):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # no-dev warning is expected
            code = run_cli(
                "train",
                "--train-corpus", synth_dir / "train.jsonl",
                "--labels", synth_dir / "labels.json",
                "--embeddings", FIXTURES / "mini_word2vec.txt",
                "--dev-fraction", 0,
                "--hidden-size", 8,
                "--word-dim", 8,
                "--branch-dim", 3,
                "--max-epochs", 1,
                "--out-dir", tmp_path,
            )
        assert code == 0
        out = capsys.readouterr().out
        assert "pretrained coverage:" in out
        (run_dir,) = [p for p in tmp_path.iterdir() if p.is_dir()]
        assert (run_dir / "checkpoint.fbrnn").is_file()


class TestClipWarning:
    @pytest.mark.parametrize("clip_norm,warns", [("0.001", True), ("none", False)])
    def test_warns_when_most_steps_are_clipped(
        self, train_cfg_file, tmp_path, capsys, clip_norm, warns
    ):
        code = run_cli(
            "train", "--config", train_cfg_file, "--out-dir", tmp_path,
            "--max-epochs", 2, "--clip-norm", clip_norm,
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "clip %" in captured.out  # the table itself is on stdout
        warnings_ = [line for line in captured.err.splitlines() if "clipped" in line]
        if warns:
            assert len(warnings_) == 2
            for epoch, line in enumerate(warnings_, 1):
                assert line.startswith(f"warning: epoch {epoch} clipped 100.0% of its steps")
        else:
            assert warnings_ == []


class TestAblate:
    def test_without_dev_corpus_splits_the_train_corpus(self, synth_dir, tmp_path, capsys):
        out = tmp_path / "grid.json"
        code = run_cli(
            "ablate",
            "--train-corpus", synth_dir / "train.jsonl",
            "--labels", synth_dir / "labels.json",
            "--embeddings", FIXTURES / "mini_word2vec.txt",
            "--hidden-size", 4,
            "--word-dim", 8,
            "--branch-dim", 2,
            "--max-epochs", 1,
            "--out", out,
        )
        assert code == 0
        table = capsys.readouterr().out.strip().splitlines()
        assert [row.split()[:2] for row in table[2:]] == [
            ["LSTM", "+branch"], ["LSTM", "-branch"], ["GRU", "+branch"], ["GRU", "-branch"],
        ]
        cells = json.loads(out.read_text())["cells"]
        assert all(c["report"] is not None and c["error"] is None for c in cells)


class TestGradcheckCommand:
    def test_passes_and_exits_zero(self, capsys):
        assert run_cli("gradcheck", "--cell", "gru", "--seed", 7) == 0
        assert "OK" in capsys.readouterr().out

    def test_impossible_tolerance_exits_three(self, capsys):
        assert run_cli("gradcheck", "--cell", "gru", "--tol", "1e-18") == 3
        assert "FAIL" in capsys.readouterr().out

    @pytest.mark.parametrize("poison", ["nan-gradient", "inf-gradient", "nan-loss-at-a-probe"])
    def test_non_finite_entry_exits_three(self, poison, monkeypatch, capsys):
        real = fbrnn.model.grad_check

        def poisoned(loss_fn, store, eps):
            t = store["head.out.b"]
            if poison == "nan-loss-at-a-probe":
                base = float(t.values[0])
                return real(
                    lambda: math.nan if t.values[0] != base else loss_fn(), store, eps=eps
                )
            t.grad[0] = math.nan if poison == "nan-gradient" else math.inf
            return real(loss_fn, store, eps=eps)

        monkeypatch.setattr(fbrnn.model, "grad_check", poisoned)
        assert run_cli("gradcheck", "--cell", "gru") == 3
        out = capsys.readouterr().out
        assert "max relative error inf (worst tensor: head.out.b)" in out
        assert "FAIL" in out


class TestExitCodes:
    def test_unknown_flag_is_usage_error(self):
        assert run_cli("synth", "--nope") == 1

    def test_missing_input_file_is_config_error(self, tmp_path):
        assert (
            run_cli(
                "build-lexicon",
                "--corpus", tmp_path / "missing.jsonl",
                "--labels", tmp_path / "missing.json",
                "--out", tmp_path / "lex.json",
            )
            == 1
        )

    def test_malformed_corpus_is_data_error(self, synth_dir, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"tokens": "not a list"}\n')
        assert (
            run_cli(
                "build-lexicon",
                "--corpus", bad,
                "--labels", synth_dir / "labels.json",
                "--out", tmp_path / "lex.json",
            )
            == 2
        )

    def test_a_diverging_run_is_a_numeric_error(self, tmp_path, capsys):
        """A learning rate of 1e300 overflows within the first epoch: exit 3,
        naming the epoch and the example, with no traceback and no run
        directory. Which step overflows first may depend on the BLAS build.
        That one line is all of stderr: the commands run with numpy's
        overflow and invalid-value warnings off, so none is issued."""
        data = tmp_path / "d"
        assert run_cli("synth", "--out", data, "--sentences", 40, "--seed", 1) == 0
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run_cli("train", "--train-corpus", data / "train.jsonl", "--dev-corpus",
                           data / "dev.jsonl", "--labels", data / "labels.json",
                           "--max-epochs", 2, "--lr", 1e300, "--out-dir", tmp_path / "runs")
        assert code == 3
        assert [str(w.message) for w in caught] == []
        err = capsys.readouterr().err
        assert re.match(r"numeric error: epoch 1, example \d+ \(sentence \d+, span ", err)
        assert err.count("\n") == 1 and err.endswith("\n"), err
        assert "Traceback" not in err
        assert list((tmp_path / "runs").iterdir()) == []

    def test_a_non_finite_gradient_is_a_numeric_error(self, synth_dir, tmp_path, capsys,
                                                      monkeypatch):
        """A NaN in head.out.b's gradient at the first optimizer step: exit
        3, naming the epoch and the tensor, and no run directory."""
        real = fbrnn.model.NuggetModel.forward_backward

        def poisoned(self, *args, **kwargs):
            losses = real(self, *args, **kwargs)
            self.store["head.out.b"].grad[0] = math.nan
            return losses

        monkeypatch.setattr(fbrnn.model.NuggetModel, "forward_backward", poisoned)
        code = run_cli("train", "--train-corpus", synth_dir / "train.jsonl", "--labels",
                       synth_dir / "labels.json", "--max-epochs", 1, "--out-dir", tmp_path)
        assert code == 3
        err = capsys.readouterr().err
        assert err == "numeric error: epoch 1: non-finite gradient in tensor 'head.out.b'\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", ["predict", "candidates", "train"])
    def test_missing_pos_names_the_sentence(
        self, command, synth_dir, trained_run, tmp_path, capsys
    ):
        """A corpus whose second line has a token without `pos`: exit 2,
        naming the sentence's index and first tokens and the token."""
        lines = (synth_dir / "dev.jsonl").read_text().splitlines()
        second = json.loads(lines[1])
        del second["tokens"][2]["pos"]
        corpus = tmp_path / "untagged.jsonl"
        corpus.write_text("\n".join([lines[0], json.dumps(second), *lines[2:]]) + "\n")
        labels, out = synth_dir / "labels.json", tmp_path / "out"
        if command == "predict":
            argv = ["--checkpoint", trained_run / "checkpoint.fbrnn", "--out", out]
        elif command == "candidates":
            lexicon = tmp_path / "lex.json"
            argv = ["--labels", labels, "--lexicon", lexicon, "--out", out]
            assert run_cli("build-lexicon", "--corpus", corpus, "--labels", labels,
                           "--out", lexicon) == 0
        else:
            argv = ["--train-corpus", synth_dir / "train.jsonl", "--labels", labels,
                    "--max-epochs", "1", "--out-dir", out]
        corpus_flag = "--dev-corpus" if command == "train" else "--corpus"
        capsys.readouterr()
        assert run_cli(command, corpus_flag, corpus, *argv) == 2
        words = [t["t"] for t in second["tokens"]]
        opening = " ".join(words[:6])
        assert (f"sentence 1: token 2 {words[2]!r} of the sentence starting {opening!r} "
                "has no POS tag" in capsys.readouterr().err)

    def test_unknown_config_key_rejected(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("not_a_key = 1\n")
        assert run_cli("train", "--config", cfg) == 1

    def test_repeated_config_key_rejected(self, train_cfg_file, tmp_path, capsys):
        """A key set twice is refused, as in a JSON object, rather than
        the last value silently winning; the message names both lines."""
        lines = train_cfg_file.read_text().splitlines()
        first = lines.index("max_epochs = 6") + 1
        cfg = tmp_path / "twice.cfg"
        cfg.write_text("\n".join([*lines, "max_epochs = 1"]) + "\n")
        assert run_cli("train", "--config", cfg, "--out-dir", tmp_path / "runs") == 1
        err = capsys.readouterr().err
        assert f"twice.cfg:{len(lines) + 1}: key 'max_epochs' repeats line {first}" in err
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize(
        "flags",
        [
            ("--lr", "-1"),
            ("--lr", "nan"),
            ("--beta1", "1.0"),
            ("--eps", "0"),
            ("--clip-norm", "0"),
            ("--clip-norm", "-3"),
        ],
    )
    def test_invalid_optimizer_flag_is_config_error(self, train_cfg_file, tmp_path, flags, capsys):
        code = run_cli("train", "--config", train_cfg_file, "--out-dir", tmp_path, *flags)
        assert code == 1
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("eps", ["0", "-1e-4"])
    def test_gradcheck_non_positive_eps_is_config_error(self, eps, capsys):
        assert run_cli("gradcheck", "--cell", "gru", "--eps", eps) == 1
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("tol", ["nan", "inf", "0", "-0.5"])
    def test_gradcheck_tolerance_must_be_finite_and_positive(self, tol, capsys):
        assert run_cli("gradcheck", "--cell", "gru", "--tol", tol) == 1
        out, err = capsys.readouterr()
        assert err.startswith("error: ") and "--tol" in err
        assert out == ""  # rejected before any check runs

    @pytest.mark.parametrize("ratio", ["nan", "inf"])
    def test_non_finite_negative_ratio_is_config_error(
        self, train_cfg_file, tmp_path, ratio, capsys
    ):
        code = run_cli(
            "train", "--config", train_cfg_file, "--out-dir", tmp_path, "--negative-ratio", ratio
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "negative_ratio" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "flags",
        [
            ("--sentences", "-1"),
            ("--grammar", "positional", "--sentences", "-1"),
            ("--negative-rate", "5"),
            ("--negative-rate", "-0.5"),
            ("--negative-rate", "nan"),
        ],
    )
    def test_invalid_synth_setting_is_config_error(self, tmp_path, flags, capsys):
        assert run_cli("synth", "--out", tmp_path / "out", *flags) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert not (tmp_path / "out" / "train.jsonl").exists()

    def test_failed_train_keeps_a_run_directory_with_artifacts(
        self, train_cfg_file, trained_run, monkeypatch
    ):
        """Retraining a finished run's config into the same directory and
        failing leaves the earlier run's artifacts where they were."""
        before = sorted(p.name for p in trained_run.iterdir())

        def fail(*args):
            raise MemoryError("no room")

        monkeypatch.setattr("fbrnn.cli.train_model", fail)
        assert run_cli("train", "--config", train_cfg_file, "--out-dir", trained_run.parent) == 1
        assert sorted(p.name for p in trained_run.iterdir()) == before

    def test_evaluate_needs_exactly_one_source(self, synth_dir):
        assert run_cli("evaluate", "--corpus", synth_dir / "dev.jsonl") == 1


# The train/ablate config flags, spelled out so that renaming a config
# field cannot silently rename or drop a flag.
_RUN_CONFIG_FLAGS = {
    "--cell", "--hidden-size", "--layers", "--word-dim", "--branch-dim",
    "--branch", "--no-branch", "--head-mode", "--head-hidden", "--dropout",
    "--optimizer", "--lr", "--beta1", "--beta2", "--eps", "--clip-norm",
    "--max-epochs", "--patience", "--batch-size", "--negative-ratio",
    "--max-nugget-len", "--threshold", "--seed", "--train-corpus",
    "--dev-corpus", "--labels", "--embeddings", "--paraphrases",
    "--dev-fraction", "--out-dir",
}


def _subparser(name):
    (sub,) = [a for a in build_parser()._actions if a.dest == "command"]
    return sub.choices[name]


class TestConfigFlags:
    @pytest.mark.parametrize("command", ["train", "ablate"])
    def test_every_config_key_has_a_flag_and_back(self, command):
        own = {"help", "config", "timing", "out"}
        flags = {}
        for action in _subparser(command)._actions:
            if action.dest not in own:
                flags.update((opt, action.dest) for opt in action.option_strings)
        assert set(flags.values()) == set(_CONFIG_KEYS)
        for flag, key in flags.items():
            if key == "use_branch":
                assert flag in ("--branch", "--no-branch")
            else:
                assert flag == "--" + key.replace("_", "-")
        assert set(flags) == _RUN_CONFIG_FLAGS

    @pytest.mark.parametrize(
        "key, flag",
        [("clip_norm", "--clip-norm"), ("negative_ratio", "--negative-ratio"),
         ("head_hidden", "--head-hidden")],
    )
    @pytest.mark.parametrize("source", ["file", "flag"])
    def test_explicit_none_reaches_the_config(self, tmp_path, key, flag, source):
        cfg = tmp_path / "run.cfg"
        # an explicit none in the file wins over the default; a none flag
        # wins over the file's value (a key set twice in a file is refused)
        setting = {"clip_norm": "2.5", "negative_ratio": "1.5", "head_hidden": "4,3"}[key]
        cfg.write_text(f"{key} = {'none' if source == 'file' else setting}\n")
        argv = ["train", "--config", str(cfg)] + ([flag, "none"] if source == "flag" else [])
        values = _resolve_run_config(build_parser().parse_args(argv))
        assert values[key] is None
        assert getattr(_train_config_from(values), key) is None

    def test_flags_not_given_keep_file_values(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("clip_norm = 2.5\nuse_branch = off\nhead_hidden = 4,3\n")
        values = _resolve_run_config(build_parser().parse_args(["train", "--config", str(cfg)]))
        assert values == {"clip_norm": 2.5, "use_branch": False, "head_hidden": (4, 3)}

    @pytest.mark.parametrize(
        "line", ["lr = abc", "use_branch = maybe", "head_hidden = 4,x", "hidden_size = 2.5"]
    )
    def test_bad_config_value_is_config_error(self, tmp_path, line, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(line + "\n")
        assert run_cli("train", "--config", cfg) == 1
        assert "bad.cfg:1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags", [("--cell", "rnn"), ("--head-mode", "crf"), ("--optimizer", "rmsprop"),
                  ("--hidden-size", "x")]
    )
    def test_bad_flag_value_is_config_error(self, train_cfg_file, tmp_path, flags, capsys):
        code = run_cli("train", "--config", train_cfg_file, "--out-dir", tmp_path, *flags)
        assert code == 1
        assert capsys.readouterr().err.startswith("error: ")


def _checkpoint_bytes(edit):
    """The trained run's checkpoint as `edit(header line, payload)` makes it,
    the line being bytes without its newline."""
    def build(synth_dir, run_dir, tmp_path):
        line, payload = (run_dir / "checkpoint.fbrnn").read_bytes().split(b"\n", 1)
        return _input_file("checkpoint", edit(line, payload))(synth_dir, run_dir, tmp_path)
    return build


def _checkpoint_with(mutate):
    """The trained run's checkpoint after `mutate` changes its header object."""
    def edit(line, payload):
        header = json.loads(line)
        mutate(header)
        return (json.dumps(header) + "\n").encode() + payload
    return _checkpoint_bytes(edit)


def _values_with(edit):
    """The trained run's checkpoint after `edit` changes its payload's values
    in place; the last value is head.out.b's."""
    def rewrite(line, payload):
        values = np.frombuffer(payload, "<f8").copy()
        edit(values)
        return line + b"\n" + values.tobytes()
    return _checkpoint_bytes(rewrite)


def _prediction(**fields):
    def build(synth_dir, run_dir, tmp_path):
        record = {"sentence": 0, "start": 0, "end": 0, "types": ["Conflict.Attack"], **fields}
        path = tmp_path / "preds.jsonl"
        path.write_text(json.dumps(record) + "\n")
        return ["evaluate", "--predictions", path, "--labels", synth_dir / "labels.json",
                "--corpus", synth_dir / "dev.jsonl"]
    return build


def _bool_span_corpus(synth_dir, run_dir, tmp_path):
    path = tmp_path / "corpus.jsonl"
    path.write_text(json.dumps({
        "tokens": [{"t": "they"}, {"t": "met"}],
        "nuggets": [{"start": True, "end": 1, "types": ["Contact.Meet"]}],
    }) + "\n")
    return ["build-lexicon", "--corpus", path, "--labels", synth_dir / "labels.json",
            "--out", tmp_path / "lex.json"]


def _threshold(command):
    def build(synth_dir, run_dir, tmp_path):
        argv = [command, "--checkpoint", run_dir / "checkpoint.fbrnn",
                "--corpus", synth_dir / "dev.jsonl", "--threshold", "7"]
        return argv + (["--out", tmp_path / "preds.jsonl"] if command == "predict" else [])
    return build


def _train_threshold(synth_dir, run_dir, tmp_path):
    return ["train", "--train-corpus", synth_dir / "train.jsonl", "--labels",
            synth_dir / "labels.json", "--threshold", "7", "--out-dir", tmp_path]


def _train_too_large(synth_dir, run_dir, tmp_path):
    """A word table of 10**15 columns: hundreds of PiB, beyond any address
    space, so the first allocation fails and nothing is allocated."""
    return ["train", "--train-corpus", synth_dir / "train.jsonl", "--labels",
            synth_dir / "labels.json", "--word-dim", str(10**15), "--out-dir", tmp_path]


def _train_missing_paraphrases(synth_dir, run_dir, tmp_path):
    return ["train", "--train-corpus", synth_dir / "train.jsonl", "--labels",
            synth_dir / "labels.json", "--paraphrases", tmp_path / "missing.tsv",
            "--max-epochs", "1", "--out-dir", tmp_path]


def _ablate_missing_embeddings(synth_dir, run_dir, tmp_path):
    return ["ablate", "--train-corpus", synth_dir / "train.jsonl", "--labels",
            synth_dir / "labels.json", "--dev-corpus", synth_dir / "dev.jsonl",
            "--embeddings", tmp_path / "missing-vectors.txt", "--max-epochs", "1"]


def _out_dir_is_a_file(synth_dir, run_dir, tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("")
    return ["train", "--train-corpus", synth_dir / "train.jsonl", "--labels",
            synth_dir / "labels.json", "--max-epochs", "1", "--out-dir", blocker]


def _out_is_under_a_file(synth_dir, run_dir, tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("")
    return ["predict", "--checkpoint", run_dir / "checkpoint.fbrnn",
            "--corpus", synth_dir / "dev.jsonl", "--out", blocker / "preds.jsonl"]


# One command per input kind that reads a file of that kind: kind ->
# (file name, argv builder given the file's path).
_READERS = {
    "corpus": ("corpus.jsonl", lambda s, r, t, p: [
        "predict", "--checkpoint", r / "checkpoint.fbrnn", "--corpus", p,
        "--out", t / "preds.jsonl"]),
    "labels": ("labels.json", lambda s, r, t, p: [
        "build-lexicon", "--corpus", s / "train.jsonl", "--labels", p,
        "--out", t / "lex.json"]),
    "paraphrases": ("paraphrases.tsv", lambda s, r, t, p: [
        "build-lexicon", "--corpus", s / "train.jsonl", "--labels", s / "labels.json",
        "--paraphrases", p, "--out", t / "lex.json"]),
    "lexicon": ("lexicon.json", lambda s, r, t, p: [
        "candidates", "--corpus", s / "dev.jsonl", "--labels", s / "labels.json",
        "--lexicon", p, "--out", t / "cands.jsonl"]),
    "embeddings": ("vectors.txt", lambda s, r, t, p: [
        "train", "--train-corpus", s / "train.jsonl", "--labels", s / "labels.json",
        "--embeddings", p, "--word-dim", "8", "--hidden-size", "4", "--branch-dim", "2",
        "--max-epochs", "1", "--out-dir", t]),
    "checkpoint": ("checkpoint.fbrnn", lambda s, r, t, p: [
        "predict", "--checkpoint", p, "--corpus", s / "dev.jsonl",
        "--out", t / "preds.jsonl"]),
    "config": ("run.cfg", lambda s, r, t, p: [
        "train", "--config", p, "--max-epochs", "1", "--out-dir", t]),
    "predictions": ("preds.jsonl", lambda s, r, t, p: [
        "evaluate", "--predictions", p, "--labels", s / "labels.json",
        "--corpus", s / "dev.jsonl"]),
}


def _input_file(kind, content):
    name, command = _READERS[kind]

    def build(synth_dir, run_dir, tmp_path):
        path = tmp_path / name
        path.write_bytes(content if isinstance(content, bytes) else content.encode())
        return command(synth_dir, run_dir, tmp_path, path)
    return build


def _corpus_line(**fields):
    return json.dumps({"tokens": [{"t": "they"}, {"t": "met"}], **fields}) + "\n"


def _unannotated(build):
    """`build` reading the dev sentences without their nuggets, which a
    checkpoint whose event types were renamed still reads."""
    def wrapped(synth_dir, run_dir, tmp_path):
        argv = build(synth_dir, run_dir, tmp_path)
        corpus = tmp_path / "unannotated.jsonl"
        lines = (synth_dir / "dev.jsonl").read_text().splitlines()
        corpus.write_text("".join(
            json.dumps({"tokens": json.loads(line)["tokens"]}) + "\n" for line in lines))
        argv[argv.index("--corpus") + 1] = corpus
        return argv
    return wrapped


_MALFORMED = [
    # (case, builder, exit code, text the message must contain)
    *[(f"{kind}-not-utf8", _input_file(kind, b"\xff\xfe"), 1 if kind == "config" else 2,
       f"{name}: ") for kind, (name, _) in _READERS.items()],
    ("emb-nan", _input_file("embeddings", "1 8\nmet nan 0 0 0 0 0 0 0\n"), 2,
     "vectors.txt:2"),
    ("emb-inf", _input_file("embeddings", "1 8\nmet 0 0 0 -inf 0 0 0 0\n"), 2,
     "vectors.txt:2"),
    ("emb-header-not-decimal", _input_file("embeddings", "1 \u00b2\n"), 2, "vectors.txt:1"),
    ("emb-duplicate-word",
     _input_file("embeddings", "2 8\nmet 0 0 0 0 0 0 0 0\nmet 1 1 1 1 1 1 1 1\n"), 2,
     "vectors.txt:3: duplicate word 'met'"),
    ("lexicon-array", _input_file("lexicon", "[]\n"), 2, "lexicon.json: "),
    ("lexicon-case-duplicate",
     _input_file("lexicon", '{"entries": {"Met": {"gold": 2}, "met": {"gold": 1}}}'), 2,
     "'Met' and 'met' differ only in case"),
    ("ckpt-lexicon-case-duplicate", _checkpoint_with(lambda d: d["pipeline"].__setitem__(
        "lexicon", {"entries": {"Met": {"gold": 2}, "met": {"gold": 1}}})), 2,
     "'Met' and 'met' differ only in case"),
    ("ckpt-lexicon-array", _checkpoint_with(lambda d: d["pipeline"].__setitem__("lexicon", [1])),
     2, "lexicon"),
    ("ckpt-lexicon-string",
     _checkpoint_with(lambda d: d["pipeline"].__setitem__("lexicon", "abc")), 2, "lexicon"),
    ("ckpt-no-lexicon",
     _checkpoint_with(lambda d: d["pipeline"].__setitem__("lexicon", None)), 2,
     "checkpoint.fbrnn: checkpoint has no embedded lexicon"),
    ("lexicon-negative-count", _input_file("lexicon", '{"entries": {"met": {"gold": -1}}}'), 2,
     "counts must be >= 0"),
    ("corpus-null-nuggets", _input_file("corpus", _corpus_line(nuggets=None)), 2,
     "corpus.jsonl:1"),
    ("corpus-int-nuggets", _input_file("corpus", _corpus_line(nuggets=5)), 2, "corpus.jsonl:1"),
    ("ckpt-float-hidden-size",
     _checkpoint_with(lambda d: d["config"].__setitem__("hidden_size", 2.5)), 2,
     "hidden_size must be an integer"),
    ("ckpt-bool-hidden-size",
     _checkpoint_with(lambda d: d["config"].__setitem__("hidden_size", True)), 2, "hidden_size"),
    ("ckpt-int-labels", _checkpoint_with(lambda d: d.__setitem__("labels", [1, 2, 3, 4, 5])), 2,
     "field 'labels' must be an array of strings"),
    ("ckpt-string-use-branch",
     _checkpoint_with(lambda d: d["config"].__setitem__("use_branch", "x")), 2, "use_branch"),
    ("ckpt-string-dropout",
     _checkpoint_with(lambda d: d["config"].__setitem__("dropout", "a")), 2, "dropout"),
    ("ckpt-deep-nesting", _input_file("checkpoint", "[" * 100_000 + "]" * 100_000 + "\n"), 2,
     "checkpoint.fbrnn: corrupt"),
    ("ckpt-huge-integer", _input_file("checkpoint", "1" * 5000 + "\n"), 2,
     "checkpoint.fbrnn: corrupt"),
    # format 4: one JSON header line, then the flat buffer's bytes
    ("ckpt-header-array", _checkpoint_bytes(lambda line, p: b"[" + line + b"]\n" + p), 2,
     "checkpoint.fbrnn: not a model checkpoint"),
    ("ckpt-header-not-utf8", _checkpoint_bytes(lambda line, p: line + b"\xff\n" + p), 2,
     "checkpoint.fbrnn: checkpoint header is not UTF-8 text"),
    ("ckpt-header-no-newline", _checkpoint_bytes(lambda line, p: line), 2,
     "checkpoint.fbrnn: checkpoint payload holds 0 bytes, not "),
    ("ckpt-tensor-missing", _checkpoint_with(lambda d: d["tensors"].pop("head.out.b")), 2,
     "head.out.b"),
    ("ckpt-tensor-renamed", _checkpoint_bytes(
        lambda line, p: line.replace(b'"head.out.b"', b'"out.b"') + b"\n" + p), 2,
     "checkpoint.fbrnn: tensor 14 is 'out.b', the model's is 'head.out.b'"),
    ("ckpt-tensor-order", _checkpoint_with(lambda d: d.__setitem__(
        "tensors", dict(reversed(d["tensors"].items())))), 2,
     "checkpoint.fbrnn: tensor 0 is 'head.out.b', the model's is 'word_emb'"),
    ("ckpt-tensor-shape", _checkpoint_with(lambda d: d["tensors"].__setitem__("head.out.b", [99])),
     2, "checkpoint.fbrnn: tensor 'head.out.b' has shape [99], not ["),
    ("ckpt-payload-missing", _checkpoint_bytes(lambda line, p: line + b"\n"), 2,
     "checkpoint.fbrnn: checkpoint payload holds 0 bytes, not "),
    ("ckpt-payload-short", _checkpoint_bytes(lambda line, p: line + b"\n" + p[:-1]), 2,
     "checkpoint.fbrnn: checkpoint payload holds"),
    ("ckpt-payload-trailing-byte", _checkpoint_bytes(lambda line, p: line + b"\n" + p + b"\0"),
     2, "checkpoint.fbrnn: checkpoint payload holds"),
    ("ckpt-payload-bytes-field", _checkpoint_with(lambda d: d.__setitem__(
        "payload_bytes", d["payload_bytes"] - 8)), 2, "checkpoint.fbrnn: field 'payload_bytes' is"),
    ("ckpt-payload-nan", _values_with(lambda v: v.__setitem__(-1, float("nan"))), 2,
     "checkpoint.fbrnn: tensor 'head.out.b' holds non-finite values"),
    ("ckpt-payload-inf", _values_with(lambda v: v.__setitem__(-1, float("-inf"))), 2,
     "checkpoint.fbrnn: tensor 'head.out.b' holds non-finite values"),
    ("ckpt-lexicon", _checkpoint_with(
        lambda d: d["pipeline"].__setitem__("lexicon", {"entries": {"x": 5}})), 2, "'x'"),
    ("ckpt-threshold", _checkpoint_with(lambda d: d["pipeline"].__setitem__("threshold", "a")),
     2, "threshold"),
    # a value of the right kind out of its range
    ("ckpt-threshold-range",
     _checkpoint_with(lambda d: d["pipeline"].__setitem__("threshold", 1.5)), 2,
     "checkpoint.fbrnn: pipeline: threshold must be in (0, 1), got 1.5"),
    ("ckpt-max-nugget-len-0",
     _checkpoint_with(lambda d: d["pipeline"].__setitem__("max_nugget_len", 0)), 2,
     "checkpoint.fbrnn: pipeline: max_nugget_len must be >= 1 or null, got 0"),
    ("ckpt-unknown-config-key", _checkpoint_with(lambda d: d["config"].__setitem__("width", 3)),
     2, "checkpoint.fbrnn: malformed checkpoint: unknown model config keys: ['width']"),
    ("ckpt-version-1", _checkpoint_with(lambda d: d.__setitem__("format_version", 1)), 2,
     "unsupported checkpoint version 1"),
    ("ckpt-version-2", _checkpoint_with(lambda d: d.__setitem__("format_version", 2)), 2,
     "unsupported checkpoint version 2"),
    ("ckpt-version-3", _checkpoint_with(lambda d: d.__setitem__("format_version", 3)), 2,
     "unsupported checkpoint version 3"),
    ("ckpt-too-large", _checkpoint_with(lambda d: d["config"].__setitem__("word_dim", 10**15)),
     2, "too large to allocate"),
    ("ckpt-extra-tensor", _checkpoint_with(lambda d: d["tensors"].__setitem__("extra.b", [1])),
     2, "extra.b"),
    # a value of another JSON kind is rejected, not converted into a valid one
    ("ckpt-labels-string",
     _unannotated(_checkpoint_with(lambda d: d.__setitem__("labels", "ABCDE"))), 2,
     "checkpoint.fbrnn: field 'labels' must be an array of strings"),
    ("ckpt-vocab-object",
     _checkpoint_with(lambda d: d.__setitem__("vocab", dict.fromkeys(d["vocab"], 0))), 2,
     "checkpoint.fbrnn: field 'vocab' must be an array of strings"),
    ("ckpt-tensors-pairs",
     _checkpoint_with(lambda d: d.__setitem__("tensors", list(d["tensors"].items()))), 2,
     "checkpoint.fbrnn: field 'tensors' must be an object"),
    ("ckpt-pipeline-pairs",
     _checkpoint_with(lambda d: d.__setitem__("pipeline", list(d["pipeline"].items()))), 2,
     "checkpoint.fbrnn: field 'pipeline' must be an object"),
    # an event type is a name: empty or blank is no name
    ("labels-empty-name", _input_file("labels", '[""]\n'), 2,
     "labels.json: event type '' is an empty or blank name"),
    ("ckpt-labels-blank", _checkpoint_with(lambda d: d["labels"].__setitem__(0, " ")), 2,
     "checkpoint.fbrnn: malformed checkpoint: event type ' ' is an empty or blank name"),
    ("corpus-empty-type", _input_file("corpus", _corpus_line(
        nuggets=[{"start": 0, "end": 0, "types": [""]}])), 2,
     "corpus.jsonl:1: nugget 0: unknown event type ''"),
    ("labels-empty-array", _input_file("labels", "[]\n"), 2,
     "label set needs at least one event type"),
    ("corpus-empty-types", _input_file("corpus", _corpus_line(
        nuggets=[{"start": 0, "end": 0, "types": []}])), 2,
     "corpus.jsonl:1: nugget 0: field 'types' must be non-empty"),
    ("pred-types-object", _prediction(types={"Conflict.Attack": 1}), 2,
     "preds.jsonl:1: field 'types' must be an array of strings"),
    ("pred-empty-types", _prediction(types=[]), 2,
     "preds.jsonl:1: field 'types' must be non-empty"),
    # a repeated key is rejected, not resolved to its last value
    ("lexicon-repeated-key",
     _input_file("lexicon", '{"entries": {"met": {"gold": 2}, "met": {"gold": 1}}}'), 2,
     "lexicon.json: corrupt lexicon (invalid JSON): an object repeats the key 'met'"),
    ("ckpt-repeated-tensor", _checkpoint_bytes(lambda line, p: line.replace(
        b'"tensors": {', b'"tensors": {"head.out.b": [1], ', 1) + b"\n" + p), 2,
     "checkpoint.fbrnn: corrupt checkpoint header (invalid JSON): an object repeats the key "
     "'head.out.b'"),
    ("corpus-repeated-key",
     _input_file("corpus", '{"tokens": [], "tokens": [{"t": "they", "pos": "PRP"}]}\n'), 2,
     "corpus.jsonl:1: invalid JSON: an object repeats the key 'tokens'"),
    ("pred-bool-sentence", _prediction(sentence=True), 2, "preds.jsonl:1"),
    ("pred-string-start", _prediction(start="0"), 2, "preds.jsonl:1"),
    ("pred-float-end", _prediction(end=0.9), 2, "preds.jsonl:1"),
    ("pred-unknown-type", _prediction(types=["Nope"]), 2, "preds.jsonl:1"),
    ("pred-sentence-range", _prediction(sentence=999), 2, "preds.jsonl:1"),
    ("pred-span-range", _prediction(start=0, end=99), 2, "preds.jsonl:1"),
    ("corpus-bool-span", _bool_span_corpus, 2, "corpus.jsonl:1"),
    ("threshold-evaluate", _threshold("evaluate"), 1, "threshold"),
    ("threshold-predict", _threshold("predict"), 1, "threshold"),
    ("threshold-train", _train_threshold, 1, "threshold"),
    ("train-too-large", _train_too_large, 1, "out of memory"),
    ("train-missing-paraphrases", _train_missing_paraphrases, 1, "paraphrases not found"),
    ("ablate-missing-embeddings", _ablate_missing_embeddings, 1,
     "missing-vectors.txt"),
    ("out-dir-file", _out_dir_is_a_file, 1, "file"),
    ("out-under-file", _out_is_under_a_file, 1, "file"),
]


class TestMalformedInputs:
    @pytest.mark.parametrize(
        "build, code, needle", [c[1:] for c in _MALFORMED], ids=[c[0] for c in _MALFORMED]
    )
    def test_documented_exit_code_without_traceback(
        self, synth_dir, trained_run, tmp_path, capsys, build, code, needle
    ):
        assert run_cli(*build(synth_dir, trained_run, tmp_path)) == code
        err = capsys.readouterr().err
        assert err.startswith("error: " if code == 1 else "data error: ")
        assert needle in err
        assert "Traceback" not in err
        assert [p for p in tmp_path.iterdir() if p.is_dir()] == []  # no run directory left


# Replacement JSON values; integers stay small so that a mutated model
# size cannot allocate much memory.
_SMALL_INTS = st.integers(-2, 12)
_JSON_VALUES = st.one_of(
    st.none(), st.booleans(), _SMALL_INTS, st.floats(), st.text(max_size=4),
    st.lists(_SMALL_INTS, max_size=3),
    st.dictionaries(st.text(max_size=3), _SMALL_INTS, max_size=2),
)


def _replace_somewhere(draw, node, value):
    """`node` with one of its values (or itself) replaced by `value`."""
    if not isinstance(node, (dict, list)) or not node or draw(st.booleans()):
        return value
    key = draw(st.sampled_from(list(node) if isinstance(node, dict) else range(len(node))))
    node[key] = _replace_somewhere(draw, node[key], value)
    return node


def _mutate(draw, kind, blob):
    """A truncated, byte-substituted or (for JSON) value-replaced `blob`."""
    how = draw(st.sampled_from(["truncate", "substitute", "json"]))
    if how == "truncate":
        return blob[: draw(st.integers(0, len(blob) - 1))]
    if how == "substitute" or kind in ("paraphrases", "embeddings", "config"):
        out = bytearray(blob)
        for _ in range(draw(st.integers(1, 3))):
            i = draw(st.integers(0, len(out) - 1))
            out[i] = draw(st.one_of(st.integers(0x20, 0x7E), st.integers(0, 255)))
        return bytes(out)
    if kind in ("corpus", "predictions"):  # JSON lines: mutate one line
        lines = blob.decode().splitlines()
        i = draw(st.integers(0, len(lines) - 1))
        lines[i] = json.dumps(_replace_somewhere(draw, json.loads(lines[i]), draw(_JSON_VALUES)))
        return ("\n".join(lines) + "\n").encode()
    if kind == "checkpoint":  # mutate the header line, keep the payload
        line, payload = blob.split(b"\n", 1)
        doc = _replace_somewhere(draw, json.loads(line), draw(_JSON_VALUES))
        return (json.dumps(doc) + "\n").encode() + payload
    doc = _replace_somewhere(draw, json.loads(blob), draw(_JSON_VALUES))
    return json.dumps(doc).encode()


@pytest.fixture(scope="module")
def valid_inputs(synth_dir, trained_run, train_cfg_file):
    """The bytes of one valid file of each input kind."""
    gold = [
        {"sentence": i, "start": n["start"], "end": n["end"], "types": n["types"]}
        for i, line in enumerate((synth_dir / "dev.jsonl").read_text().splitlines())
        for n in json.loads(line)["nuggets"]
    ]
    files = {
        "corpus": synth_dir / "dev.jsonl",
        "labels": synth_dir / "labels.json",
        "paraphrases": synth_dir / "paraphrases.tsv",
        "lexicon": trained_run / "lexicon.json",
        "embeddings": FIXTURES / "mini_word2vec.txt",
        "checkpoint": trained_run / "checkpoint.fbrnn",
        "config": train_cfg_file,
    }
    blobs = {kind: path.read_bytes() for kind, path in files.items()}
    blobs["predictions"] = "".join(json.dumps(g) + "\n" for g in gold).encode()
    return blobs


class TestInputFuzz:
    """Every mutation of a valid input ends in a documented exit code."""

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(data=st.data())
    def test_mutated_inputs_exit_with_a_documented_code(
        self, synth_dir, trained_run, valid_inputs, tmp_path_factory, data
    ):
        kind = data.draw(st.sampled_from(sorted(_READERS)))
        blob = _mutate(data.draw, kind, valid_inputs[kind])
        tmp_path = tmp_path_factory.mktemp("fuzz")
        build = _input_file(kind, blob)
        with warnings.catch_warnings(), redirect_stdout(io.StringIO()), \
                redirect_stderr(io.StringIO()):
            warnings.simplefilter("ignore")
            code = run_cli(*build(synth_dir, trained_run, tmp_path))
        assert code in (0, 1, 2, 3)


# Every field of every JSON input that the CLI reads: (input kind, path to the
# field, the JSON kinds it takes). A path step "*" is an object's first key.
_CONFIG_JSON_KINDS = {int: "int", float: "int float", bool: "bool", str: "string",
                      tuple[int, ...] | None: "array null"}
_FIELDS = [
    ("corpus", (), "object"),
    ("corpus", ("tokens",), "array"),
    ("corpus", ("tokens", 0), "object"),
    ("corpus", ("tokens", 0, "t"), "string"),
    ("corpus", ("tokens", 0, "pos"), "string null"),
    ("corpus", ("nuggets",), "array"),
    ("corpus", ("nuggets", 0), "object"),
    ("corpus", ("nuggets", 0, "start"), "int"),
    ("corpus", ("nuggets", 0, "end"), "int"),
    ("corpus", ("nuggets", 0, "types"), "array"),
    ("corpus", ("nuggets", 0, "types", 0), "string"),
    ("predictions", (), "object"),
    ("predictions", ("sentence",), "int"),
    ("predictions", ("start",), "int"),
    ("predictions", ("end",), "int"),
    ("predictions", ("types",), "array"),
    ("predictions", ("types", 0), "string"),
    ("labels", (), "array"),
    ("labels", (0,), "string"),
    ("lexicon", (), "object"),
    ("lexicon", ("entries",), "object"),
    ("lexicon", ("entries", "*"), "object"),
    ("lexicon", ("entries", "*", "gold"), "int"),
    ("lexicon", ("entries", "*", "paraphrase"), "int"),
    ("checkpoint", (), "object"),
    ("checkpoint", ("format_version",), "int"),
    ("checkpoint", ("kind",), "string"),
    ("checkpoint", ("config",), "object"),
    *[("checkpoint", ("config", name), _CONFIG_JSON_KINDS[kind])
      for name, kind in typing.get_type_hints(fbrnn.model.ModelConfig).items()],
    ("checkpoint", ("labels",), "array"),
    ("checkpoint", ("labels", 0), "string"),
    ("checkpoint", ("vocab",), "array"),
    ("checkpoint", ("vocab", 0), "string"),
    ("checkpoint", ("pipeline",), "object"),
    ("checkpoint", ("pipeline", "lexicon"), "object null"),
    ("checkpoint", ("pipeline", "max_nugget_len"), "int null"),
    ("checkpoint", ("pipeline", "threshold"), "int float"),
    ("checkpoint", ("tensors",), "object"),
    ("checkpoint", ("tensors", "*"), "array"),
    ("checkpoint", ("tensors", "*", 0), "int"),
    ("checkpoint", ("payload_bytes",), "int"),
]

# Each JSON kind, as a value made from the field's valid value `v` where it
# can be, so that a reader which converts instead of checking would accept
# it: labels as a string of as many letters, types as an object of them,
# tensors as an array of pairs, a count as a bool or a float.
_AS_KIND = {
    "null": lambda v: None,
    "bool": lambda v: bool(v) if type(v) in (int, float) else True,
    "int": lambda v: int(v) if type(v) in (bool, float) else 1,
    "float": lambda v: float(v) if type(v) is int else 0.5,
    "string": lambda v: ("ABCDEFGHIJKLMNOPQRSTUVWXYZ" * 9)[: len(v)]
    if isinstance(v, (list, dict)) else str(v),
    "array": lambda v: list(v.items()) if isinstance(v, dict) else list(v)
    if isinstance(v, str) else [v],
    "object": lambda v: dict.fromkeys(v, 1)
    if isinstance(v, list) and all(isinstance(x, str) for x in v) else {"k": v},
}
_WRONG_KINDS = [
    (kind, path, json_kind)
    for kind, path, takes in _FIELDS
    for json_kind in _AS_KIND
    if json_kind not in takes.split()
]


def _document_file(kind, doc, run_dir):
    """`doc` as a file of `kind`: one JSON line, which for a checkpoint is
    the header, followed by the trained run's payload."""
    text = (json.dumps(doc) + "\n").encode()
    if kind == "checkpoint":
        text += (run_dir / "checkpoint.fbrnn").read_bytes().split(b"\n", 1)[1]
    return text


@pytest.fixture(scope="module")
def valid_documents(synth_dir, trained_run):
    """One valid JSON document (or line, or checkpoint header) of each JSON
    input kind."""
    return {
        "corpus": {"tokens": [{"t": "they", "pos": "PRP"}, {"t": "met", "pos": "VBD"}],
                   "nuggets": [{"start": 1, "end": 1, "types": ["Contact.Meet"]}]},
        "predictions": {"sentence": 0, "start": 0, "end": 0, "types": ["Conflict.Attack"]},
        "labels": json.loads((synth_dir / "labels.json").read_text()),
        "lexicon": json.loads((trained_run / "lexicon.json").read_text()),
        "checkpoint": json.loads((trained_run / "checkpoint.fbrnn").read_bytes().split(b"\n")[0]),
    }


class TestWrongKinds:
    """A value of a JSON kind that its field does not take is exit 2,
    never read as a value of another kind."""

    def test_the_valid_documents_are_read(self, synth_dir, trained_run, valid_documents,
                                          tmp_path):
        for kind, doc in valid_documents.items():
            build = _input_file(kind, _document_file(kind, doc, trained_run))
            assert run_cli(*build(synth_dir, trained_run, tmp_path)) == 0, kind

    @pytest.mark.parametrize(
        "kind, path, json_kind", _WRONG_KINDS,
        ids=[f"{k}-{'.'.join(map(str, p)) or 'document'}-{j}" for k, p, j in _WRONG_KINDS],
    )
    def test_a_value_of_another_kind_is_exit_2(
        self, synth_dir, trained_run, valid_documents, tmp_path, capsys, kind, path, json_kind
    ):
        root = {"": json.loads(json.dumps(valid_documents[kind]))}  # a deep copy
        node, key = root, ""
        for step in path:
            node, key = node[key], step
            if step == "*":
                key = next(iter(node))
        node[key] = _AS_KIND[json_kind](node[key])
        build = _input_file(kind, _document_file(kind, root[""], trained_run))
        if kind == "checkpoint":  # so that renamed event types are read, not refused
            build = _unannotated(build)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert run_cli(*build(synth_dir, trained_run, tmp_path)) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and "Traceback" not in err


class TestConsoleScript:
    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "fbrnn.cli", "gradcheck", "--cell", "gru"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "OK" in proc.stdout
