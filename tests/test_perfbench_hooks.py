"""The benchmark's tracer wraps fbrnn functions by name; keep them wrappable."""

from pathlib import Path

import numpy as np
import pytest

from fbrnn import evaluation, model, numerics, training
from fbrnn.candidates import BranchSplit, LabeledExample, NuggetCandidate, split_branches
from fbrnn.corpus import LabelSet, Sentence, Token

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_installs_and_restores_every_hook(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    original_step = numerics.Optimizer.step
    tracer = tracing.Tracer()
    tracing.install(tracer, clip_norm=5.0)
    try:
        store = numerics.ParamStore()
        store.create("a", np.ones((3, 2)))
        store.create("b", np.ones(4))
        store.grad[:] = 1.0
        numerics.Optimizer(store).step()
        store.zero_grads()
    finally:
        tracer.restore()
    assert numerics.Optimizer.step is original_step
    for name in ("optimizer_step", "clip_gradients", "adam_step", "zero_grads"):
        assert tracer.calls(f"numerics.{name}") == 1, name
    assert tracer.counts["adam_elements"] == store.values.size


def test_tracer_counts_the_reached_word_rows_of_a_model_step(monkeypatch):
    """The step visits every non-word entry and the word rows a gradient
    reached: adam_elements counts exactly those."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    cfg = model.ModelConfig(hidden_size=3, word_dim=4, branch_dim=2, dropout=0.0)
    words = ["a", "b", "c"] + [f"idle{i}" for i in range(20)]
    nugget_model = model.build_model(cfg, words, LabelSet(["A"]), numerics.Rng(0))
    store, word = nugget_model.store, nugget_model.store["word_emb"]
    tracer = tracing.Tracer()
    tracing.install(tracer, clip_norm=5.0)
    try:
        nugget_model.forward_backward([BranchSplit(("a",), ("b", "c"), ("a",))], [("A",)])
        numerics.Optimizer(store).step()
    finally:
        tracer.restore()
    assert word.reached.sum() == 3
    assert tracer.calls("numerics.adam_step") == len(store.live_regions())
    dense = store.values.size - word.size
    assert tracer.counts["adam_elements"] == dense + 3 * cfg.word_dim


def test_model_hooks_fire_in_one_forward_backward(monkeypatch):
    """The benchmark's per-layer encoder and head metrics read these calls."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    cfg = model.ModelConfig(hidden_size=3, word_dim=4, branch_dim=2, dropout=0.0)
    nugget_model = model.build_model(cfg, ["a", "b", "c"], LabelSet(["A"]), numerics.Rng(0))
    split = BranchSplit(("a",), ("b", "c"), ("a",))
    tracer = tracing.Tracer()
    tracing.install(tracer, clip_norm=5.0)
    try:
        nugget_model.forward_backward([split], [("A",)])
    finally:
        tracer.restore()
    for name in (
        "model.encode.left",
        "model.encode.nugget",
        "model.encode.right",
        "model.head_forward",
        "model.head_backprop",
        "model.forward_backward",
    ):
        assert tracer.calls(name) == 1, name
    assert tracer.calls("model.encoder_backprop") == 3
    # one input matrix per branch, and one gradient scatter per branch
    assert tracer.calls("embeddings.assemble_input") == 3
    assert tracer.calls("embeddings.accumulate_grad") == 3
    # `encode_tokens` counts encode's input rows: each branch's distinct words
    assert tracer.counts["encode_tokens"] == 4


def test_predict_examples_shares_one_left_and_one_right_pass(monkeypatch):
    """One sentence with k candidates is one model call: one LEFT pass up to
    the last start, one RIGHT pass down to the first end, and one NUGGET
    pass over the k spans, each reading one input row per distinct word."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    words = ("a", "b", "c", "d", "e", "f", "g", "h")
    cfg = model.ModelConfig(hidden_size=3, word_dim=4, branch_dim=2, dropout=0.0)
    nugget_model = model.build_model(cfg, words, LabelSet(["A"]), numerics.Rng(0))
    spans = [(1, 2), (3, 3), (5, 6), (2, 4)]
    sentence = Sentence(tuple(Token(w) for w in words))
    examples = [
        LabeledExample(0, NuggetCandidate(s, e), split_branches(sentence, NuggetCandidate(s, e)))
        for s, e in spans
    ]
    tracer = tracing.Tracer()
    tracing.install(tracer, clip_norm=5.0)
    try:
        evaluation.predict_examples(nugget_model, examples)
    finally:
        tracer.restore()
    T = len(words)
    assert tracer.calls("model.encode.left") == 1
    assert tracer.calls("model.encode.right") == 1
    assert tracer.calls("model.encode.nugget") == 1
    assert tracer.calls("model.head_forward") == 1
    max_start = max(s for s, _ in spans)
    min_end = min(e for _, e in spans)
    nugget_words = {w for s, e in spans for w in words[s : e + 1]}
    assert len(nugget_words) < sum(e - s + 1 for s, e in spans)  # spans overlap
    assert tracer.counts["encode_tokens"] == max_start + (T - min_end - 1) + len(nugget_words)


def test_one_batched_training_step_encodes_each_branch_once(monkeypatch):
    """A minibatch is one forward_backward: one encode per branch over the
    distinct words of all its examples, one scatter per branch, one step."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    words = ("a", "b", "c", "d", "e", "f")
    sentence = Sentence(tuple(Token(w) for w in words))
    examples = [
        LabeledExample(0, NuggetCandidate(s, e), split_branches(sentence, NuggetCandidate(s, e)))
        for s, e in [(0, 0), (1, 2), (5, 5), (3, 3), (2, 4)]
    ]
    cfg = training.TrainConfig(
        hidden_size=3, word_dim=4, branch_dim=2, batch_size=len(examples), max_epochs=1
    )
    tracer = tracing.Tracer()
    tracing.install(tracer, clip_norm=5.0)
    try:
        with pytest.warns(UserWarning, match="no dev set"):
            training.train_model(cfg, examples, None, None, words, LabelSet(["A"]))
    finally:
        tracer.restore()
    assert tracer.calls("numerics.optimizer_step") == 1
    for name in (
        "model.encode.left",
        "model.encode.nugget",
        "model.encode.right",
        "model.head_forward",
        "model.head_backprop",
        "model.forward_backward",
    ):
        assert tracer.calls(name) == 1, name
    assert tracer.calls("model.encoder_backprop") == 3
    assert tracer.calls("embeddings.assemble_input") == 3
    assert tracer.calls("embeddings.accumulate_grad") == 3
    distinct = [{w for ex in examples for w in getattr(ex.split, part)}
                for part in ("left", "nugget", "right")]
    assert sum(map(len, distinct)) < len(examples) * len(words)
    assert tracer.counts["encode_tokens"] == sum(map(len, distinct))
