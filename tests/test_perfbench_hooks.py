"""The benchmark's tracer wraps fbrnn functions by name; keep them wrappable."""

from pathlib import Path

import numpy as np

from fbrnn import numerics

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
