"""End-to-end CLI behavior: pipeline smoke, exit codes, determinism."""

import base64
import io
import json
import subprocess
import sys
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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


class TestTrainEvaluatePredict:
    def test_run_dir_artifacts(self, trained_run):
        for name in (
            "checkpoint.json",
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
            "--checkpoint", trained_run / "checkpoint.json",
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
                "--checkpoint", trained_run / "checkpoint.json",
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
        assert (run_dir / "checkpoint.json").is_file()


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

    def test_unknown_config_key_rejected(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("not_a_key = 1\n")
        assert run_cli("train", "--config", cfg) == 1

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
        # the file sets a value; an explicit none in the file or a flag wins
        setting = {"clip_norm": "2.5", "negative_ratio": "1.5", "head_hidden": "4,3"}[key]
        lines = [f"{key} = {setting}"] + ([f"{key} = none"] if source == "file" else [])
        cfg.write_text("\n".join(lines) + "\n")
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


def _checkpoint_with(mutate):
    def build(synth_dir, run_dir, tmp_path):
        data = json.loads((run_dir / "checkpoint.json").read_text())
        mutate(data)
        path = tmp_path / "checkpoint.json"
        path.write_text(json.dumps(data))
        out = tmp_path / "preds.jsonl"
        return ["predict", "--checkpoint", path, "--corpus", synth_dir / "dev.jsonl", "--out", out]
    return build


def _tensor(data):
    return data["tensors"]["head.out.b"]


def _version_2_with(mutate):
    """`_checkpoint_with(mutate)` on the checkpoint rewritten as format
    version 2 held it: each tensor's values as a JSON list under `values`."""
    def to_version_2(data):
        for entry in data["tensors"].values():
            entry["values"] = np.frombuffer(base64.b64decode(entry.pop("data")), "<f8").tolist()
        data["format_version"] = 2
        mutate(data)
    return _checkpoint_with(to_version_2)


def _data_with(edit):
    """`_checkpoint_with` re-encoding head.out.b's values after `edit` changes their list."""
    def mutate(data):
        values = np.frombuffer(base64.b64decode(_tensor(data)["data"]), "<f8").tolist()
        edit(values)
        _tensor(data)["data"] = base64.b64encode(np.array(values, "<f8").tobytes()).decode()
    return _checkpoint_with(mutate)


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
        argv = [command, "--checkpoint", run_dir / "checkpoint.json",
                "--corpus", synth_dir / "dev.jsonl", "--threshold", "7"]
        return argv + (["--out", tmp_path / "preds.jsonl"] if command == "predict" else [])
    return build


def _train_threshold(synth_dir, run_dir, tmp_path):
    return ["train", "--train-corpus", synth_dir / "train.jsonl", "--labels",
            synth_dir / "labels.json", "--threshold", "7", "--out-dir", tmp_path]


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
    return ["predict", "--checkpoint", run_dir / "checkpoint.json",
            "--corpus", synth_dir / "dev.jsonl", "--out", blocker / "preds.jsonl"]


# One command per input kind that reads a file of that kind: kind ->
# (file name, argv builder given the file's path).
_READERS = {
    "corpus": ("corpus.jsonl", lambda s, r, t, p: [
        "predict", "--checkpoint", r / "checkpoint.json", "--corpus", p,
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
    "checkpoint": ("checkpoint.json", lambda s, r, t, p: [
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


_MALFORMED = [
    # (case, builder, exit code, text the message must contain)
    *[(f"{kind}-not-utf8", _input_file(kind, b"\xff\xfe"), 1 if kind == "config" else 2,
       f"{name}: ") for kind, (name, _) in _READERS.items()],
    ("emb-nan", _input_file("embeddings", "1 8\nmet nan 0 0 0 0 0 0 0\n"), 2,
     "vectors.txt:2"),
    ("emb-inf", _input_file("embeddings", "1 8\nmet 0 0 0 -inf 0 0 0 0\n"), 2,
     "vectors.txt:2"),
    ("emb-header-not-decimal", _input_file("embeddings", "1 \u00b2\n"), 2, "vectors.txt:1"),
    ("lexicon-array", _input_file("lexicon", "[]\n"), 2, "lexicon.json: "),
    ("ckpt-lexicon-array", _checkpoint_with(lambda d: d["pipeline"].__setitem__("lexicon", [1])),
     2, "lexicon"),
    ("ckpt-lexicon-string",
     _checkpoint_with(lambda d: d["pipeline"].__setitem__("lexicon", "abc")), 2, "lexicon"),
    ("corpus-null-nuggets", _input_file("corpus", _corpus_line(nuggets=None)), 2,
     "corpus.jsonl:1"),
    ("corpus-int-nuggets", _input_file("corpus", _corpus_line(nuggets=5)), 2, "corpus.jsonl:1"),
    ("ckpt-float-hidden-size",
     _checkpoint_with(lambda d: d["config"].__setitem__("hidden_size", 2.5)), 2, "integers"),
    ("ckpt-bool-hidden-size",
     _checkpoint_with(lambda d: d["config"].__setitem__("hidden_size", True)), 2, "hidden_size"),
    ("ckpt-int-labels", _checkpoint_with(lambda d: d.__setitem__("labels", [1, 2, 3, 4, 5])), 2,
     "labels must hold strings"),
    ("ckpt-string-use-branch",
     _checkpoint_with(lambda d: d["config"].__setitem__("use_branch", "x")), 2, "use_branch"),
    ("ckpt-string-dropout",
     _checkpoint_with(lambda d: d["config"].__setitem__("dropout", "a")), 2, "dropout"),
    ("ckpt-deep-nesting", _input_file("checkpoint", "[" * 100_000 + "]" * 100_000), 2,
     "checkpoint.json: corrupt"),
    ("ckpt-huge-integer", _input_file("checkpoint", "1" * 5000), 2, "checkpoint.json: corrupt"),
    ("ckpt-no-shape", _checkpoint_with(lambda d: _tensor(d).pop("shape")), 2, "head.out.b"),
    ("ckpt-no-values", _version_2_with(lambda d: _tensor(d).pop("values")), 2, "head.out.b"),
    ("ckpt-value-count", _version_2_with(lambda d: _tensor(d)["values"].pop()), 2,
     "head.out.b"),
    ("ckpt-nan", _version_2_with(lambda d: _tensor(d)["values"].__setitem__(0, float("nan"))),
     2, "head.out.b"),
    ("ckpt-inf", _version_2_with(lambda d: _tensor(d)["values"].__setitem__(0, float("inf"))),
     2, "head.out.b"),
    ("ckpt-no-data", _checkpoint_with(lambda d: _tensor(d).pop("data")), 2, "head.out.b"),
    ("ckpt-data-not-string", _checkpoint_with(lambda d: _tensor(d).__setitem__("data", [0.0])),
     2, "head.out.b"),
    ("ckpt-data-not-base64",
     _checkpoint_with(lambda d: _tensor(d).__setitem__("data", "AAAA*AAA")), 2, "head.out.b"),
    ("ckpt-data-partial-value",
     _checkpoint_with(lambda d: _tensor(d).__setitem__("data", "A" * 16)), 2, "head.out.b"),
    ("ckpt-data-count", _data_with(list.pop), 2, "head.out.b"),
    ("ckpt-data-nan", _data_with(lambda v: v.__setitem__(0, float("nan"))), 2, "head.out.b"),
    ("ckpt-data-inf", _data_with(lambda v: v.__setitem__(0, float("-inf"))), 2, "head.out.b"),
    ("ckpt-lexicon", _checkpoint_with(
        lambda d: d["pipeline"].__setitem__("lexicon", {"entries": {"x": 5}})), 2, "'x'"),
    ("ckpt-threshold", _checkpoint_with(lambda d: d["pipeline"].__setitem__("threshold", "a")),
     2, "threshold"),
    ("ckpt-version-1", _checkpoint_with(lambda d: d.__setitem__("format_version", 1)), 2,
     "unsupported checkpoint version 1"),
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
        "checkpoint": trained_run / "checkpoint.json",
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


class TestConsoleScript:
    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "fbrnn.cli", "gradcheck", "--cell", "gru"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "OK" in proc.stdout
