"""End-to-end CLI behavior: pipeline smoke, exit codes, determinism."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from fbrnn.cli import main

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


class TestConsoleScript:
    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "fbrnn.cli", "gradcheck", "--cell", "gru"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "OK" in proc.stdout
