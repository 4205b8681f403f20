"""Training loop determinism, early stopping, checkpoint persistence."""

import dataclasses
import json
import os
import re
import struct
import subprocess
import sys
import tracemalloc
import typing
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fbrnn.candidates import BranchSplit, TriggerLexicon, build_examples, build_trigger_lexicon
from fbrnn.corpus import (
    LabelSet,
    default_synthetic_spec,
    make_synthetic_corpus,
    split_corpus,
    vocabulary_of,
)
from fbrnn.errors import ConfigurationError, DataError, NumericError
from fbrnn.evaluation import PRFReport, evaluate_model
from fbrnn.model import ModelConfig, assemble_model, build_model
from fbrnn.numerics import UPDATE_BLOCK, Optimizer, ParamStore, Rng
from fbrnn.training import (
    CHECKPOINT_VERSION,
    EpochStat,
    TrainConfig,
    TrainLog,
    load_checkpoint,
    save_checkpoint,
    train_model,
)

SMALL_CFG = TrainConfig(
    cell="gru",
    hidden_size=12,
    word_dim=10,
    branch_dim=4,
    dropout=0.3,
    lr=2e-3,
    max_epochs=5,
    patience=5,
    seed=42,
)


@pytest.fixture(scope="module")
def small_data():
    spec = default_synthetic_spec(n_sentences=60)
    corpus = make_synthetic_corpus(spec, Rng(100))
    labels = spec.label_set()
    train, dev = split_corpus(corpus, 0.2, Rng(101))
    lex = build_trigger_lexicon(train)
    return {
        "labels": labels,
        "train": train,
        "dev": dev,
        "train_ex": build_examples(train, lex, labels, 3),
        "dev_ex": build_examples(dev, lex, labels, 3),
        "vocab": vocabulary_of(train),
    }


def run(cfg, data, dev=True):
    return train_model(
        cfg,
        data["train_ex"],
        data["dev_ex"] if dev else None,
        data["dev"] if dev else None,
        data["vocab"],
        data["labels"],
    )


class TestLoop:
    def test_patience_zero_runs_exactly_one_epoch(self, small_data):
        cfg = dataclasses.replace(SMALL_CFG, patience=0, max_epochs=10)
        _, log = run(cfg, small_data)
        assert len(log.epochs) == 1

    def test_same_seed_identical_losses_and_parameters(self, small_data):
        cfg = dataclasses.replace(SMALL_CFG, max_epochs=3)
        model_a, log_a = run(cfg, small_data)
        model_b, log_b = run(cfg, small_data)
        assert [e.loss for e in log_a.epochs] == [e.loss for e in log_b.epochs]
        for name in model_a.store.names():
            assert np.array_equal(
                model_a.store[name].values, model_b.store[name].values
            ), name

    def test_same_seed_identical_csv(self, small_data):
        cfg = dataclasses.replace(SMALL_CFG, max_epochs=3)
        _, log_a = run(cfg, small_data)
        _, log_b = run(cfg, small_data)
        assert log_a.to_csv() == log_b.to_csv()

    def test_different_seed_diverges(self, small_data):
        cfg_a = dataclasses.replace(SMALL_CFG, max_epochs=2)
        cfg_b = dataclasses.replace(SMALL_CFG, max_epochs=2, seed=43)
        _, log_a = run(cfg_a, small_data)
        _, log_b = run(cfg_b, small_data)
        assert [e.loss for e in log_a.epochs] != [e.loss for e in log_b.epochs]

    def test_monotone_memorization(self, small_data):
        cfg = dataclasses.replace(SMALL_CFG, max_epochs=10, dropout=0.1)
        _, log = run(cfg, small_data)
        assert log.epochs[9].loss < log.epochs[0].loss

    def test_no_dev_disables_early_stopping_with_warning(self, small_data):
        cfg = dataclasses.replace(SMALL_CFG, max_epochs=3, patience=0)
        with pytest.warns(UserWarning, match="early stopping"):
            _, log = run(cfg, small_data, dev=False)
        assert len(log.epochs) == 3
        assert all(e.dev_f1 is None for e in log.epochs)
        assert log.best_epoch == 3 and log.best_dev_f1() is None

    def test_returned_model_matches_best_logged_dev_f1(self, small_data):
        cfg = dataclasses.replace(SMALL_CFG, max_epochs=8, patience=3)
        model, log = run(cfg, small_data)
        actual = evaluate_model(model, small_data["dev_ex"], small_data["dev"], cfg.threshold)
        assert log.epochs[log.best_epoch - 1].dev == actual  # counts included
        assert log.best_dev_f1() == actual.f1 == max(e.dev_f1 for e in log.epochs)

    @pytest.mark.parametrize(
        "bad",
        [
            {"lr": -1.0},
            {"lr": float("nan")},
            {"beta1": 1.0},
            {"beta2": 1.5},
            {"eps": 0.0},
            {"eps": float("inf")},
            {"clip_norm": 0.0},
            {"clip_norm": -3.0},
        ],
    )
    def test_invalid_optimizer_hyperparameters_rejected(self, bad):
        with pytest.raises(ConfigurationError):
            dataclasses.replace(SMALL_CFG, **bad)

    @pytest.mark.parametrize("threshold", [0.0, 1.0, 7.0, -0.1, float("nan")])
    def test_threshold_outside_open_unit_interval_rejected(self, threshold):
        with pytest.raises(ConfigurationError, match="threshold"):
            dataclasses.replace(SMALL_CFG, threshold=threshold)

    def test_epoch_records_gradient_norms(self, small_data):
        _, log = run(dataclasses.replace(SMALL_CFG, max_epochs=2, clip_norm=0.5), small_data)
        for e in log.epochs:
            assert 0.0 < e.grad_norm_mean <= e.grad_norm_max
            assert 0.0 < e.clip_rate <= 1.0
        assert "|g| mean" in log.format_table()

    def test_empty_training_set_rejected(self, small_data):
        with pytest.raises(ConfigurationError):
            train_model(
                SMALL_CFG, [], None, None, small_data["vocab"], small_data["labels"]
            )

    def test_poisoned_parameters_raise_numeric_error(self):
        labels = LabelSet(["A"])
        cfg = ModelConfig(hidden_size=4, word_dim=4, branch_dim=2, dropout=0.0)
        model = build_model(cfg, ["u", "v"], labels, Rng(0))
        model.store["word_emb"].values[:] = np.nan
        with pytest.raises(NumericError, match="non-finite"):
            model.forward_backward([BranchSplit((), ("u",), ("v",))], [()])

    def test_nan_aborts_with_epoch_example_diagnostics(self, small_data, monkeypatch):
        from fbrnn.model import NuggetModel

        def boom(self, *args, **kwargs):
            raise NumericError("non-finite loss nan")

        monkeypatch.setattr(NuggetModel, "forward_backward", boom)
        with pytest.raises(NumericError, match=r"epoch 1, example \d+"):
            run(SMALL_CFG, small_data)

    def test_nan_in_a_minibatch_names_the_first_bad_example(self, small_data, monkeypatch):
        from fbrnn.model import NuggetModel

        seen = []

        def boom(self, splits, types, rng=None):
            seen.append(splits[2])
            raise NumericError("non-finite loss nan", position=2)

        monkeypatch.setattr(NuggetModel, "forward_backward", boom)
        with pytest.raises(NumericError, match=r"epoch 1, example \d+") as info:
            run(dataclasses.replace(SMALL_CFG, batch_size=4), small_data)
        idx = int(str(info.value).split("example ")[1].split(" ")[0])
        ex = small_data["train_ex"][idx]
        assert ex.split is seen[0]
        assert f"(sentence {ex.sentence_index}, span {ex.candidate.span})" in str(info.value)

    def test_a_non_finite_gradient_names_its_tensor(self, small_data, monkeypatch):
        from fbrnn.model import NuggetModel

        real = NuggetModel.forward_backward

        def poisoned(self, *args, **kwargs):
            losses = real(self, *args, **kwargs)
            self.store["head.out.b"].grad[0] = np.nan
            return losses

        monkeypatch.setattr(NuggetModel, "forward_backward", poisoned)
        with pytest.raises(NumericError) as info:
            run(SMALL_CFG, small_data)
        assert str(info.value) == "epoch 1: non-finite gradient in tensor 'head.out.b'"

    @pytest.mark.parametrize("patience, epochs, best", [(1, 3, 2), (2, 4, 2), (3, 5, 5)])
    def test_early_stopping_on_a_scripted_dev_f1(
        self, small_data, monkeypatch, patience, epochs, best
    ):
        """Dev F1 0.5, 0.7, 0.7, 0.6, 0.9: only a strictly higher F1 is a new
        best, so the tie at epoch 3 is not one; the run stops `patience`
        epochs after its best and returns the best epoch's values."""
        f1s = [0.5, 0.7, 0.7, 0.6, 0.9]
        values = []

        def scripted(model, *args):
            values.append(model.store.clone_values())
            hits = round(10 * f1s[len(values) - 1])
            return PRFReport(hits, 10, 10)  # precision = recall = F1 = hits / 10

        monkeypatch.setattr("fbrnn.training.evaluate_model", scripted)
        cfg = dataclasses.replace(SMALL_CFG, max_epochs=5, patience=patience)
        model, log = run(cfg, small_data)
        assert [e.dev_f1 for e in log.epochs] == pytest.approx(f1s[:epochs])
        assert (len(log.epochs), log.best_epoch) == (epochs, best)
        assert log.best_dev_f1() == pytest.approx(f1s[best - 1])
        assert np.array_equal(model.store.values, values[best - 1])

    def test_a_one_epoch_run_takes_no_snapshot(self, small_data, monkeypatch):
        """With one epoch the best epoch is the last: nothing can change the
        values after it, so they are never cloned nor restored."""
        def refused(self, *args):
            raise AssertionError("a one-epoch run snapshots its values")

        monkeypatch.setattr(ParamStore, "clone_values", refused)
        monkeypatch.setattr(ParamStore, "load_values", refused)
        model, log = run(dataclasses.replace(SMALL_CFG, max_epochs=1), small_data)
        assert (len(log.epochs), log.best_epoch) == (1, 1)

    def test_a_best_last_epoch_is_not_restored(self, small_data, monkeypatch):
        """Dev F1 rising every epoch: each epoch but the last is snapshot,
        none is restored."""
        f1s = iter([0.5, 0.6, 0.7])
        monkeypatch.setattr("fbrnn.training.evaluate_model",
                            lambda *args: PRFReport(round(10 * next(f1s)), 10, 10))
        calls = []
        clone = ParamStore.clone_values
        monkeypatch.setattr(ParamStore, "clone_values",
                            lambda self: calls.append("clone") or clone(self))
        monkeypatch.setattr(ParamStore, "load_values", lambda self, v: calls.append("load"))
        _, log = run(dataclasses.replace(SMALL_CFG, max_epochs=3), small_data)
        assert (len(log.epochs), log.best_epoch, calls) == (3, 3, ["clone", "clone"])

    def test_negative_ratio_without_positives_rejected(self, small_data):
        # _epoch_order would keep no example, and the mean epoch loss would
        # divide by zero
        negatives = [ex for ex in small_data["train_ex"] if not ex.candidate.types]
        cfg = dataclasses.replace(SMALL_CFG, negative_ratio=1.0)
        with pytest.raises(ConfigurationError, match="no training example is positive"):
            train_model(cfg, negatives, None, None, small_data["vocab"], small_data["labels"])

    def test_negative_downsampling_shrinks_epoch(self, small_data):
        # with ratio 0.1 an epoch sees fewer examples => lower epoch loss sum
        cfg = dataclasses.replace(SMALL_CFG, max_epochs=1, negative_ratio=0.1)
        model, log = run(cfg, small_data)
        assert log.epochs  # runs fine; composition checked via _epoch_order
        from fbrnn.training import _epoch_order

        order = _epoch_order(small_data["train_ex"], Rng(0), 0.1)
        positives = [
            i for i in order if small_data["train_ex"][i].candidate.types
        ]
        negatives = [
            i for i in order if not small_data["train_ex"][i].candidate.types
        ]
        assert len(negatives) <= max(1, int(0.1 * len(positives)) + 1)


class TestConfigSchema:
    def test_train_config_extends_model_config(self):
        model_cfg = TrainConfig().model_config()
        assert type(model_cfg) is ModelConfig
        assert model_cfg == ModelConfig()
        assert set(model_cfg.to_dict()) == {f.name for f in dataclasses.fields(ModelConfig)}

    def test_model_fields_come_first_in_order(self):
        names = [f.name for f in dataclasses.fields(TrainConfig)]
        assert names[: len(dataclasses.fields(ModelConfig))] == [
            f.name for f in dataclasses.fields(ModelConfig)
        ]
        # positional construction follows that order
        assert TrainConfig("lstm", 7).hidden_size == 7

    @pytest.mark.parametrize(
        "name, value",
        [
            (name, value)
            for name, kind in typing.get_type_hints(TrainConfig).items()
            if kind in (int, float, float | None)
            for value in (("1", 1.5, True) if kind is int else ("1",))
        ],
    )
    def test_wrong_typed_number_is_rejected_when_the_config_is_made(self, name, value):
        """Every int and float field, the model's and the run's, takes a
        number of its kind only, through the constructor and through
        `dataclasses.replace`; a bool is not a number."""
        with pytest.raises(ConfigurationError, match=rf"\b{name}\b"):
            TrainConfig(**{name: value})
        with pytest.raises(ConfigurationError, match=rf"\b{name}\b"):
            dataclasses.replace(SMALL_CFG, **{name: value})

    @pytest.mark.parametrize(
        "config, bad, message",
        [
            (ModelConfig, {"hidden_size": 0}, "hidden_size, layers and word_dim must be >= 1"),
            (ModelConfig, {"layers": 0}, "hidden_size, layers and word_dim must be >= 1"),
            (ModelConfig, {"word_dim": 0}, "hidden_size, layers and word_dim must be >= 1"),
            (ModelConfig, {"branch_dim": 0}, "branch_dim must be >= 1 when branches are on"),
            (ModelConfig, {"dropout": 1.0}, "dropout must be a number in [0, 1), got 1.0"),
            (ModelConfig, {"dropout": float("nan")}, "dropout must be a number in [0, 1), got nan"),
            (ModelConfig, {"head_hidden": (4, 0)}, "head_hidden widths must be >= 1"),
            (TrainConfig, {"max_epochs": 0},
             "max_epochs, batch_size and max_nugget_len must be >= 1"),
            (TrainConfig, {"batch_size": 0},
             "max_epochs, batch_size and max_nugget_len must be >= 1"),
            (TrainConfig, {"max_nugget_len": 0},
             "max_epochs, batch_size and max_nugget_len must be >= 1"),
            (TrainConfig, {"patience": -1}, "patience must be >= 0"),
        ],
    )
    def test_a_setting_out_of_its_range_is_refused_by_its_message(self, config, bad, message):
        """Each range check of `ModelConfig` and `TrainConfig` fires with its
        own message, for a model config and for a run config alike."""
        for make in {config, TrainConfig}:
            with pytest.raises(ConfigurationError, match=f"^{re.escape(message)}$"):
                make(**bad)

    def test_model_config_carries_every_model_field(self):
        cfg = dataclasses.replace(SMALL_CFG, head_mode="sigmoid", head_hidden=(5,), layers=2)
        model_cfg = cfg.model_config()
        for f in dataclasses.fields(ModelConfig):
            assert getattr(model_cfg, f.name) == getattr(cfg, f.name)


class TestTrainLogCsv:
    def test_csv_schema(self, small_data):
        cfg = dataclasses.replace(SMALL_CFG, max_epochs=2)
        _, log = run(cfg, small_data)
        lines = log.to_csv().splitlines()
        assert lines[0] == "epoch,loss,dev_p,dev_r,dev_f1,seconds"
        assert len(lines) == 3
        assert lines[1].startswith("1,")

    def test_timing_column_zeroed_by_default(self, small_data):
        cfg = dataclasses.replace(SMALL_CFG, max_epochs=1)
        _, log = run(cfg, small_data)
        assert log.to_csv().splitlines()[1].endswith(",0.000")
        assert not log.to_csv(timing=True).splitlines()[1].endswith(",0.000")

    def test_text_pinned(self):
        log = TrainLog([
            EpochStat(1, 0.5, PRFReport(2, 4, 3), 1.5, 2.5, 4.0, 0.25),
            EpochStat(2, 0.25, None, 0.25, 1.0, 1.5, 0.0),
        ], best_epoch=1)
        assert log.to_csv() == (
            "epoch,loss,dev_p,dev_r,dev_f1,seconds\n"
            "1,0.500000,0.500000,0.666667,0.571429,0.000\n"
            "2,0.250000,,,,0.000\n"
        )
        assert log.to_csv(timing=True) == (
            "epoch,loss,dev_p,dev_r,dev_f1,seconds\n"
            "1,0.500000,0.500000,0.666667,0.571429,1.500\n"
            "2,0.250000,,,,0.250\n"
        )
        assert log.format_table() == (
            "epoch       loss    dev P    dev R   dev F1  |g| mean   |g| max  clip %     sec\n"
            "    1     0.5000    50.00    66.67    57.14     2.500     4.000   25.00    1.50 *\n"
            "    2     0.2500        -        -        -     1.000     1.500    0.00    0.25"
        )


def _split(path):
    """A checkpoint file as (header object, payload bytes)."""
    line, payload = path.read_bytes().split(b"\n", 1)
    return json.loads(line), payload


def _write(path, header, payload):
    path.write_bytes((json.dumps(header) + "\n").encode() + payload)


class TestCheckpoint:
    def build_model(self, head_mode="softmax", head_hidden=None):
        labels = LabelSet(["A", "B"])
        cfg = ModelConfig(hidden_size=6, word_dim=5, branch_dim=3, head_mode=head_mode,
                          head_hidden=head_hidden, dropout=0.0)
        words = [f"w{i}" for i in range(8)]
        return build_model(cfg, words, labels, Rng(77)), words

    def saved(self, tmp_path):
        model, _ = self.build_model()
        path = tmp_path / "ckpt.fbrnn"
        save_checkpoint(path, model)
        return path

    def test_roundtrip_preserves_predictions_bitwise(self, tmp_path):
        model, words = self.build_model()
        path = tmp_path / "ckpt.fbrnn"
        save_checkpoint(path, model)
        loaded = load_checkpoint(path).model
        rng = Rng(5)
        for _ in range(100):
            n = 1 + rng.randint(6)
            tokens = tuple(words[rng.randint(len(words))] for _ in range(n))
            cut = rng.randint(n)
            split = BranchSplit(tokens[:cut], tokens[cut:], ())
            a = model.predict_proba(split)
            b = loaded.predict_proba(split)
            assert np.array_equal(a, b)
            assert model.predict(split) == loaded.predict(split)

    @pytest.mark.parametrize(
        "cut, needle",
        [
            (lambda blob, n: blob[:-1], "payload holds 10103 bytes, not 10104"),
            (lambda blob, n: blob + b"\0", "payload holds 10105 bytes, not 10104"),
            (lambda blob, n: blob[:n], "payload holds 0 bytes"),
            (lambda blob, n: blob[: n - 1], "payload holds 0 bytes"),
            (lambda blob, n: blob[: n // 2], "corrupt checkpoint header"),
            (lambda blob, n: b"", "corrupt checkpoint header"),
        ],
        ids=["payload-short", "trailing-byte", "no-payload", "no-newline", "half-header",
             "empty"],
    )
    def test_truncated_file_fails_cleanly(self, tmp_path, cut, needle):
        path = self.saved(tmp_path)
        blob = path.read_bytes()
        path.write_bytes(cut(blob, blob.index(b"\n") + 1))
        with pytest.raises(DataError, match=f"{re.escape(str(path))}: .*{needle}"):
            load_checkpoint(path)

    def test_cell_kind_mismatch_rejected(self, tmp_path):
        model, _ = self.build_model()
        path = tmp_path / "ckpt.fbrnn"
        save_checkpoint(path, model)
        wrong = dataclasses.replace(model.cfg, cell="lstm")
        with pytest.raises(DataError, match="does not match"):
            load_checkpoint(path, expect=wrong)

    def test_tensor_shape_mismatch_names_tensor(self, tmp_path):
        path = self.saved(tmp_path)
        header, payload = _split(path)
        header["tensors"]["head.out.b"] = [99]
        _write(path, header, payload)
        with pytest.raises(DataError, match=r"tensor 'head.out.b' has shape \[99\], not \[3\]"):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "edit, needle",
        [
            (lambda t: t.pop("word_emb"), "tensor 0 is 'branch_emb', the model's is 'word_emb'"),
            (lambda t: t.pop("head.out.b"), "tensor 14 is None, the model's is 'head.out.b'"),
            (lambda t: t.__setitem__("extra", [1]), "tensor 15 is 'extra', the model's is None"),
            (lambda t: t.__setitem__("word_emb", t.pop("word_emb")),
             "tensor 0 is 'branch_emb', the model's is 'word_emb'"),
        ],
        ids=["missing", "missing-last", "extra", "reordered"],
    )
    def test_tensor_names_must_be_the_models_in_order(self, tmp_path, edit, needle):
        path = self.saved(tmp_path)
        header, payload = _split(path)
        edit(header["tensors"])
        _write(path, header, payload)
        with pytest.raises(DataError, match=re.escape(f"{path}: {needle}")):
            load_checkpoint(path)

    def test_payload_byte_count_must_match(self, tmp_path):
        path = self.saved(tmp_path)
        header, payload = _split(path)
        header["payload_bytes"] += 8
        _write(path, header, payload + bytes(8))
        with pytest.raises(DataError, match="field 'payload_bytes' is 10112, not 10104"):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "header", [[1], "fbrnn-checkpoint", {"kind": "other"}], ids=["array", "string", "other-kind"]
    )
    def test_header_that_is_not_a_checkpoint_object_rejected(self, tmp_path, header):
        path = self.saved(tmp_path)
        _write(path, header, _split(path)[1])
        with pytest.raises(DataError, match="not a model checkpoint"):
            load_checkpoint(path)

    def test_header_that_is_not_utf8_rejected(self, tmp_path):
        path = self.saved(tmp_path)
        path.write_bytes(b'{"kind": "\xff"}\n' + _split(path)[1])
        with pytest.raises(DataError, match="header is not UTF-8"):
            load_checkpoint(path)

    def test_lexicon_and_settings_travel_with_checkpoint(self, tmp_path):
        model, _ = self.build_model()
        from fbrnn.candidates import TriggerLexicon

        lex = TriggerLexicon()
        lex.add_gold("struck")
        path = tmp_path / "ckpt.fbrnn"
        save_checkpoint(path, model, lexicon=lex, max_nugget_len=3, threshold=0.4)
        loaded = load_checkpoint(path)
        assert "struck" in loaded.lexicon
        assert loaded.max_nugget_len == 3
        assert loaded.threshold == 0.4

    @pytest.mark.parametrize("head_hidden", [(5, 4), ()], ids=["two-tanh-layers", "linear"])
    def test_head_hidden_roundtrip(self, tmp_path, head_hidden):
        """`head_hidden` is written as a JSON array and read back as the tuple
        it was, so `expect` matches; () is a head without a tanh layer."""
        model, words = self.build_model(head_hidden=head_hidden)
        hidden = [n for n in model.store.names() if n.startswith("head.") and n.endswith(".W")]
        assert len(hidden) == len(head_hidden) + 1  # the tanh layers and the output layer
        path = tmp_path / "ckpt.fbrnn"
        save_checkpoint(path, model)
        assert _split(path)[0]["config"]["head_hidden"] == list(head_hidden)
        loaded = load_checkpoint(path, expect=model.cfg).model
        assert loaded.cfg.head_hidden == head_hidden
        for split in (BranchSplit((words[0],), (words[1],), (words[2],)),
                      BranchSplit((), (words[3], words[4]), ())):
            assert model.predict_proba(split).tobytes() == loaded.predict_proba(split).tobytes()

    def test_sigmoid_head_roundtrip(self, tmp_path):
        model, words = self.build_model(head_mode="sigmoid")
        path = tmp_path / "ckpt.fbrnn"
        save_checkpoint(path, model)
        loaded = load_checkpoint(path).model
        split = BranchSplit((words[0],), (words[1],), (words[2],))
        assert np.array_equal(model.predict_proba(split), loaded.predict_proba(split))

    def test_roundtrip_is_bit_exact_and_little_endian(self, tmp_path):
        model, _ = self.build_model()
        edge = [-0.0, 5e-324, 1 / 3, 1e308]
        model.store["head.out.b"].values[:] = edge[:3]
        model.store["head.out.W"].values[0, :4] = edge
        path = tmp_path / "ckpt.fbrnn"
        save_checkpoint(path, model)
        loaded = load_checkpoint(path).model
        assert loaded.store.values.tobytes() == model.store.values.tobytes()
        header, payload = _split(path)
        assert header["payload_bytes"] == len(payload) == model.store.values.nbytes
        first, *rest = struct.unpack("<3d", payload[-24:])  # head.out.b comes last
        assert str(first) == "-0.0" and rest == [5e-324, 1 / 3]

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_model_is_not_saved(self, tmp_path, bad):
        model, _ = self.build_model()
        model.store["head.out.b"].values[0] = bad
        path = tmp_path / "ckpt.fbrnn"
        with pytest.raises(NumericError, match="head.out.b"):
            save_checkpoint(path, model)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("bad", [float("nan"), float("-inf")])
    def test_non_finite_payload_is_not_loaded(self, tmp_path, bad):
        path = self.saved(tmp_path)
        header, payload = _split(path)
        _write(path, header, payload[:-8] + struct.pack("<d", bad))
        with pytest.raises(DataError, match="tensor 'head.out.b' holds non-finite values"):
            load_checkpoint(path)


class TestBlockwiseFiniteCheck:
    """Save and load check the flat values one UPDATE_BLOCK piece at a time;
    a NaN on either side of a piece boundary inside `word_emb` (the first
    tensor, 300 x 300 entries, so the boundary falls in it) names it."""

    @pytest.fixture(scope="class")
    def model(self):
        cfg = ModelConfig(hidden_size=3, word_dim=300, branch_dim=2)
        model = build_model(cfg, [f"w{i}" for i in range(299)], LabelSet(["A"]), Rng(3))
        assert model.store.names()[0] == "word_emb"
        assert model.store["word_emb"].size > UPDATE_BLOCK
        return model

    @pytest.mark.parametrize("index", [UPDATE_BLOCK - 1, UPDATE_BLOCK])
    def test_save_refuses(self, tmp_path, model, index):
        values = model.store.values
        kept = values[index]
        values[index] = np.nan
        try:
            with pytest.raises(NumericError, match="cannot save tensor 'word_emb'"):
                save_checkpoint(tmp_path / "ckpt.fbrnn", model)
        finally:
            values[index] = kept
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("index", [UPDATE_BLOCK - 1, UPDATE_BLOCK])
    def test_load_refuses(self, tmp_path, model, index):
        path = tmp_path / "ckpt.fbrnn"
        save_checkpoint(path, model)
        header, payload = _split(path)
        at = 8 * index
        _write(path, header, payload[:at] + struct.pack("<d", np.nan) + payload[at + 8 :])
        with pytest.raises(DataError, match="tensor 'word_emb' holds non-finite values"):
            load_checkpoint(path)


class TestPeakMemory:
    """Neither building a model nor loading one makes a second copy of its
    parameters: traced allocations peak at the store's two flat arrays
    (values and gradient) plus SLACK. The slack covers the draws' three
    512 KB scratch blocks, the vocabulary's list and dict, and the header's
    JSON; a third table-sized array (9.2 MiB here) would exceed it. The SGD
    optimizer keeps no state of its own (Adam adds its two moment arrays)."""

    SLACK = 3 * 2**20
    CFG = ModelConfig(hidden_size=4, word_dim=300, branch_dim=3)
    WORDS = [f"w{i}" for i in range(3999)]  # a 4,000 x 300 table with UNK

    @staticmethod
    def peak(call):
        tracemalloc.start()
        try:
            result = call()
            return result, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_build_model_and_optimizer(self):
        def build():
            model = build_model(self.CFG, self.WORDS, LabelSet(["A", "B"]), Rng(1))
            Optimizer(model.store, kind="sgd")
            return model

        model, peak = self.peak(build)
        store = model.store
        assert store["word_emb"].shape == (4000, 300)
        assert peak <= store.values.nbytes + store.grad.nbytes + self.SLACK

    def test_load_checkpoint(self, tmp_path):
        model = build_model(self.CFG, self.WORDS, LabelSet(["A", "B"]), Rng(1))
        path = tmp_path / "ckpt.fbrnn"
        save_checkpoint(path, model)
        del model
        loaded, peak = self.peak(lambda: load_checkpoint(path))
        store = loaded.model.store
        assert peak <= store.values.nbytes + store.grad.nbytes + self.SLACK


_EDGES = [-0.0, 5e-324, -5e-324, 2.225e-308, np.finfo(float).tiny, np.finfo(float).max,
          -np.finfo(float).max]


@settings(max_examples=50, derandomize=True, database=None, deadline=None)
@given(writes=st.lists(st.tuples(
    st.integers(0, 10**6),
    st.one_of(st.sampled_from(_EDGES), st.floats(allow_nan=False, allow_infinity=False)),
), max_size=30))
@example(writes=list(enumerate(_EDGES)))
def test_every_finite_value_round_trips_bit_for_bit(tmp_path_factory, writes):
    """A zero-filled model, its untouched word rows left zero, with edge
    values written at drawn places, loads back to the same bytes."""
    words = ["<unk>"] + [f"w{i}" for i in range(40)]
    model = assemble_model(
        ModelConfig(hidden_size=3, word_dim=4, branch_dim=2), words, LabelSet(["A"]), rng=None
    )
    values = model.store.values
    for place, value in writes:
        values[place % values.size] = value
    path = tmp_path_factory.mktemp("ckpt") / "ckpt.fbrnn"
    save_checkpoint(path, model)
    assert load_checkpoint(path).model.store.values.tobytes() == values.tobytes()


FIXTURES = Path(__file__).parent / "fixtures"


def test_golden_checkpoint_predicts_identically():
    """The pin on forward bits across commits. `checkpoint_v4.fbrnn` holds a
    small GRU model, first written in format version 2 and converted to
    versions 3 and then 4 bit for bit. `checkpoint_v4_proba_tanh_gates.json`
    holds, bit for bit, the probabilities it gives since the cells take
    their sigmoid gates as 0.5 tanh(a/2) + 0.5. `checkpoint_v4_proba.json`
    holds those it gave when it was written, through `numerics.sigmoid`
    gates and the update `(1 - z) h + z hc`; they still agree within
    1e-15 (measured 1.1e-16), with the same argmax."""
    path = FIXTURES / "checkpoint_v4.fbrnn"
    header, payload = _split(path)
    assert header["format_version"] == 4
    loaded = load_checkpoint(path)
    offset = 0
    for t in loaded.model.store:
        raw = payload[offset : offset + 8 * t.size]
        assert struct.pack(f"<{t.size}d", *t.values.flat) == raw, t.name
        offset += len(raw)
    assert offset == len(payload)
    assert "met" in loaded.lexicon and loaded.max_nugget_len == 2 and loaded.threshold == 0.4
    cases = json.loads((FIXTURES / "checkpoint_v4_proba_tanh_gates.json").read_text())["cases"]
    written = json.loads((FIXTURES / "checkpoint_v4_proba.json").read_text())["cases"]
    assert len(cases) == 6 and [c["split"] for c in cases] == [c["split"] for c in written]
    for case, first in zip(cases, written):
        proba = loaded.model.predict_proba(BranchSplit(*map(tuple, case["split"])))
        assert proba.tobytes() == np.array(case["proba"]).tobytes(), case["split"]
        assert np.max(np.abs(proba - first["proba"])) <= 1e-15, case["split"]
        assert proba.argmax() == np.argmax(first["proba"]), case["split"]


def test_golden_checkpoint_lexicon_round_trips():
    header, _ = _split(FIXTURES / "checkpoint_v4.fbrnn")
    embedded = header["pipeline"]["lexicon"]
    assert TriggerLexicon.from_dict(embedded).to_dict() == embedded


@pytest.mark.parametrize("cell", ["gru", "lstm"])
def test_trained_stacked_model_loads_and_predicts_bit_identically(small_data, tmp_path, cell):
    """A trained two-layer GRU or LSTM survives a save and load bit for bit."""
    cfg = dataclasses.replace(SMALL_CFG, cell=cell, layers=2, max_epochs=1)
    model, _ = run(cfg, small_data)
    path = tmp_path / "ckpt.fbrnn"
    save_checkpoint(path, model)
    loaded = load_checkpoint(path).model
    assert loaded.store.values.tobytes() == model.store.values.tobytes()
    for ex in small_data["dev_ex"]:
        assert np.array_equal(loaded.predict_proba(ex.split), model.predict_proba(ex.split))


_LOAD_AND_MEASURE = """
import json, resource, sys
from fbrnn.errors import DataError
from fbrnn.training import load_checkpoint
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
try:
    load_checkpoint(sys.argv[1])
    error = None
except DataError as e:
    error = str(e)
after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(json.dumps({"grown_kb": after - before, "error": error}))
"""


def test_oversized_config_is_rejected_without_touching_its_memory(tmp_path):
    """The golden checkpoint with its header's `word_dim` set to 200,000:
    its model would hold about 73 MB, the file holds 15 small tensors. The
    shape check rejects `word_emb` before any of the model is written, so
    the peak RSS of a fresh interpreter stays where it was."""
    header, payload = _split(FIXTURES / "checkpoint_v4.fbrnn")
    header["config"]["word_dim"] = 200_000
    path = tmp_path / "ckpt.fbrnn"
    _write(path, header, payload)
    src = str(Path(__file__).resolve().parents[1] / "src")
    path_var = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path_var)
    proc = subprocess.run(
        [sys.executable, "-c", _LOAD_AND_MEASURE, str(path)],
        capture_output=True, text=True, env=env, check=True,
    )
    result = json.loads(proc.stdout)
    assert "word_emb" in result["error"]
    assert result["grown_kb"] < 10 * 1024  # ru_maxrss is in KiB on Linux


@pytest.mark.parametrize("version", [0, 1, 2, 3, CHECKPOINT_VERSION + 1, True, "1"])
def test_other_versions_rejected(tmp_path, version):
    """Versions 1 (each gate its own W, U and b), 2 (each tensor a JSON list
    of floats under `values`) and 3 (each tensor's bytes as base64 text in
    one JSON document) are no longer read."""
    model = build_model(
        ModelConfig(hidden_size=4, word_dim=5, branch_dim=2), ["a"], LabelSet(["A"]), Rng(3)
    )
    path = tmp_path / "ckpt.fbrnn"
    save_checkpoint(path, model)
    header, payload = _split(path)
    header["format_version"] = version
    _write(path, header, payload)
    with pytest.raises(DataError, match=re.escape(f"unsupported checkpoint version {version!r}")):
        load_checkpoint(path)


def test_format_3_document_names_its_version(tmp_path):
    """A format-3 file is one JSON document with no newline; loading it says
    which version it is, not that its payload is missing."""
    path = tmp_path / "ckpt.json"
    path.write_text(json.dumps({"format_version": 3, "kind": "fbrnn-checkpoint", "tensors": {}}))
    with pytest.raises(DataError, match="unsupported checkpoint version 3"):
        load_checkpoint(path)


_TRAIN_AND_DIGEST = """
import hashlib, json, sys, warnings
from fbrnn.candidates import build_examples, build_trigger_lexicon
from fbrnn.corpus import default_synthetic_spec, make_synthetic_corpus, vocabulary_of
from fbrnn.model import ModelConfig, build_model
from fbrnn.numerics import Rng
from fbrnn.training import TrainConfig, train_model
warnings.simplefilter("ignore")  # no dev set
spec = default_synthetic_spec(n_sentences=40)
corpus, labels = make_synthetic_corpus(spec, Rng(100)), spec.label_set()
examples = build_examples(corpus, build_trigger_lexicon(corpus), labels, 3)
cfg = TrainConfig(**json.loads(sys.argv[1]))
model, _ = train_model(cfg, examples, None, None, vocabulary_of(corpus), labels)
start = build_model(cfg.model_config(), vocabulary_of(corpus), labels, Rng(cfg.seed))
assert model.store.values.tobytes() != start.store.values.tobytes()  # it trained
print(hashlib.sha256(model.store.values.tobytes()).hexdigest())
"""


def _trained_digest(threads: str, **config) -> str:
    """The SHA-256 of the parameter bytes that `config` trains to on 40
    synthetic sentences, in a fresh interpreter with `threads` BLAS threads."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path_var = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path_var, OPENBLAS_NUM_THREADS=threads)
    digest = subprocess.run(
        [sys.executable, "-c", _TRAIN_AND_DIGEST, json.dumps(config)],
        capture_output=True, text=True, env=env, check=True,
    ).stdout.strip()
    assert len(digest) == 64
    return digest


def test_one_blas_thread_count_trains_the_same_bytes_in_two_processes():
    """The same tiny batched training, run in two fresh interpreters with
    the same `OPENBLAS_NUM_THREADS`, ends in the same parameter bytes.
    (Different thread counts may not at batch 32: README, "Determinism".)"""
    threads = os.environ.get("OPENBLAS_NUM_THREADS", "2")
    config = dict(hidden_size=16, word_dim=12, branch_dim=4, batch_size=8, max_epochs=2, seed=7)
    assert _trained_digest(threads, **config) == _trained_digest(threads, **config)


def test_batch_one_training_trains_the_same_bytes_on_one_and_two_blas_threads():
    """Per-example training with a 300-d word table: the clipped gradient's
    word-table block passes 10,000 entries, where an OpenBLAS dot would
    split its sum of squares across threads. The pre-clip norm is summed
    without BLAS, so one and two threads train the same bytes."""
    config = dict(hidden_size=16, word_dim=300, batch_size=1, clip_norm=1.0, max_epochs=1, seed=7)
    assert _trained_digest("1", **config) == _trained_digest("2", **config)
