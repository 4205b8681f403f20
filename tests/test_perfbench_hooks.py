"""The benchmark's tracer wraps fbrnn functions by name; keep them wrappable."""

from pathlib import Path

import numpy as np

from fbrnn import model, numerics
from fbrnn.candidates import BranchSplit
from fbrnn.corpus import LabelSet

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
        nugget_model.forward_backward(split, ("A",))
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
    assert tracer.counts["encode_tokens"] == 4
