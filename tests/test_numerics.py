"""Kernel tests: tensors, activations, init, dropout, optimizers, grad check."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fbrnn.errors import ConfigurationError, NumericError
from fbrnn.numerics import (
    UPDATE_BLOCK,
    Optimizer,
    ParamStore,
    Rng,
    adam_step,
    clip_gradients,
    dropout_mask,
    grad_check,
    init_uniform_scaled,
    sgd_step,
    sigmoid,
    softmax,
)


class TestRng:
    def test_same_seed_same_stream(self):
        a = Rng(123).u64_block(100)
        b = Rng(123).u64_block(100)
        assert np.array_equal(a, b)

    def test_blocked_draws_match_scalar_draws(self):
        block = Rng(9).u64_block(10)
        scalar = [Rng(9).next_u64() if i == 0 else None for i in range(1)]
        one_at_a_time = []
        r = Rng(9)
        for _ in range(10):
            one_at_a_time.append(r.next_u64())
        assert list(block) == one_at_a_time

    def test_random_in_unit_interval(self):
        draws = Rng(5).random(10_000)
        assert draws.min() >= 0.0 and draws.max() < 1.0

    def test_shuffle_is_permutation_and_deterministic(self):
        items = list(range(50))
        a, b = list(items), list(items)
        Rng(7).shuffle(a)
        Rng(7).shuffle(b)
        assert a == b
        assert sorted(a) == items
        assert a != items  # astronomically unlikely to be identity

    def test_weighted_index_distribution(self):
        rng = Rng(11)
        counts = [0, 0, 0]
        n = 30_000
        for _ in range(n):
            counts[rng.weighted_index([1.0, 2.0, 7.0])] += 1
        assert abs(counts[0] / n - 0.1) < 0.01
        assert abs(counts[2] / n - 0.7) < 0.01


class TestActivations:
    def test_sigmoid_zero(self):
        assert sigmoid(np.array([0.0]))[0] == 0.5

    def test_sigmoid_saturates_without_overflow(self):
        out = sigmoid(np.array([1000.0, -1000.0]))
        assert out[0] == pytest.approx(1.0, abs=1e-15)
        assert out[1] == pytest.approx(0.0, abs=1e-15)
        assert np.isfinite(out).all()

    def test_sigmoid_is_exact_at_infinity_and_keeps_nan(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = sigmoid(np.array([np.inf, -np.inf]))
        assert out.tolist() == [1.0, 0.0]
        assert np.isnan(sigmoid(np.array([np.nan]))).all()

    def test_sigmoid_has_the_bits_of_the_two_divide_formula(self):
        """One divide, `where(x >= 0, 1, e) / (1 + e)`, against the formula
        it replaced, `where(x >= 0, 1 / (1 + e), e / (1 + e))`, bit for bit
        over normal draws and the tails: +-0, +-inf, NaN, the edges of
        exp's range (+-710, +-745) and subnormal inputs."""
        x = np.concatenate(
            (
                np.random.default_rng(0).normal(0.0, 10.0, 1_000_000),
                [0.0, -0.0, np.inf, -np.inf, np.nan, 710.0, -710.0, 745.0, -745.0],
                [1e-300, -1e-300, 5e-324, -5e-324, 36.7, -36.7, 1e-17, -1e-17],
            )
        )
        e = np.exp(-np.abs(x))
        d = 1.0 + e
        two_divides = np.where(x >= 0, 1.0 / d, e / d)
        out = sigmoid(x)
        assert isinstance(out, np.ndarray) and out.shape == x.shape
        assert out.tobytes() == two_divides.tobytes()

    def test_softmax_symmetry(self):
        assert np.allclose(softmax([0.0, 0.0]), [0.5, 0.5])

    def test_softmax_large_logits_stable(self):
        out = softmax([1000.0, 1000.0, 1000.0])
        assert np.allclose(out, [1 / 3] * 3)
        assert np.isfinite(out).all()

    def test_softmax_closed_form(self):
        out = softmax([math.log(2.0), 0.0])
        assert out == pytest.approx([2 / 3, 1 / 3], abs=1e-12)

    def test_softmax_rejects_empty(self):
        with pytest.raises(ConfigurationError):
            softmax(np.array([]))

    @given(
        st.lists(st.floats(-50, 50), min_size=1, max_size=12),
        st.floats(-100, 100),
    )
    @settings(max_examples=100)
    def test_softmax_sums_to_one_and_shift_invariant(self, logits, shift):
        base = softmax(logits)
        assert abs(base.sum() - 1.0) <= 1e-12
        shifted = softmax(np.array(logits) + shift)
        assert np.allclose(base, shifted, atol=1e-12)


class TestInit:
    def test_bound(self):
        t = init_uniform_scaled((4, 4), Rng(0))
        assert np.abs(t).max() <= math.sqrt(6 / 8)

    def test_deterministic(self):
        a = init_uniform_scaled((5, 3), Rng(99))
        b = init_uniform_scaled((5, 3), Rng(99))
        assert np.array_equal(a, b)

    def test_statistical_mean(self):
        # 1e5 draws: empirical mean of a zero-mean uniform is ~0
        t = init_uniform_scaled((50_000, 2), Rng(3))
        assert abs(t.mean()) < 0.01


class TestDropout:
    def test_eval_mode_identity(self):
        # Evaluation passes no rng: the head's dropout is then the identity,
        # even at a rate that would zero nearly every unit.
        from fbrnn.model import Head

        store = ParamStore()
        out_w = store.create("out.W", init_uniform_scaled((3, 64), Rng(4)))
        out_b = store.create("out.b", np.zeros(3))
        rep = np.linspace(-1.0, 1.0, 64)
        probs, cache = Head([], out_w, out_b, "softmax", 0.9).forward(rep)
        assert cache.mask is None
        assert np.array_equal(cache.acts[0], rep)
        assert np.array_equal(probs, softmax(out_w.values @ rep))

    def test_zero_rate_identity(self):
        mask = dropout_mask(64, 0.0, Rng(0))
        assert np.array_equal(mask, np.ones(64))

    def test_inverted_dropout_preserves_expectation(self):
        mask = dropout_mask(100_000, 0.5, Rng(21))
        assert set(np.unique(mask)) == {0.0, 2.0}
        assert abs(mask.mean() - 1.0) < 0.02

    def test_invalid_rate(self):
        with pytest.raises(ConfigurationError):
            dropout_mask(4, 1.0, Rng(0))


def one_tensor_store(name, values):
    store = ParamStore()
    store.create(name, values)
    return store, store[name]


class TestOptimizers:
    def test_sgd_arithmetic(self):
        store, p = one_tensor_store("p", [1.0])
        p.grad[:] = 2.0
        Optimizer(store, kind="sgd", lr=0.1, clip_norm=None).step()
        assert p.values[0] == pytest.approx(0.8)

    def test_zero_grad_no_change(self):
        store, p = one_tensor_store("p", [1.5, -2.5])
        before = p.values.copy()
        Optimizer(store, kind="sgd", lr=0.5).step()
        Optimizer(store, kind="adam", lr=1e-3).step()
        assert np.array_equal(p.values, before)

    def test_adam_first_step_closed_form(self):
        # bias correction makes the first step -lr * g / (|g| + eps)
        store, p = one_tensor_store("p", np.zeros(4))
        p.grad[:] = 1.0
        opt = Optimizer(store, kind="adam", lr=1e-3, eps=1e-8, clip_norm=None)
        opt.step()
        expected = -1e-3 * (1.0 / (1.0 + 1e-8))
        assert p.values == pytest.approx(np.full(4, expected), rel=1e-12)
        assert opt.step_count == 1
        assert np.array_equal(p.grad, np.ones(4))  # caller owns zeroing

    def test_adam_zero_grads_bitwise_stable(self):
        store, p = one_tensor_store("p", [0.125, -3.5, 7.0])
        before = p.values.copy()
        opt = Optimizer(store, kind="adam")
        for _ in range(17):
            opt.step()
        assert np.array_equal(p.values, before)

    def test_adam_moment_shape_guard(self):
        values, grad = np.zeros(3), np.zeros(3)
        scratch = (np.empty(3), np.empty(3))
        with pytest.raises(ConfigurationError):
            adam_step(values, grad, np.zeros(5), np.zeros(3), 1, 1e-3, 0.9, 0.999, 1e-8, scratch)

    def test_clip_scales_to_max_norm(self):
        store = ParamStore()
        t = store.create("t", np.zeros(4))
        t.grad[:] = 3.0  # norm 6
        norm = clip_gradients(store, 3.0)
        assert norm == pytest.approx(6.0)
        assert np.linalg.norm(t.grad) == pytest.approx(3.0)

    def test_clip_names_nonfinite_tensor(self):
        store = ParamStore()
        t = store.create("exploding", np.zeros(2))
        t.grad[:] = np.nan
        with pytest.raises(NumericError, match="exploding"):
            clip_gradients(store, 5.0)

    def test_optimizer_step_counts(self):
        store = ParamStore()
        store.create("a", np.ones(2))
        opt = Optimizer(store, kind="adam", lr=1e-3)
        opt.step()
        opt.step()
        assert opt.step_count == 2

    @pytest.mark.parametrize(
        "bad",
        [
            {"kind": "adagrad"},
            {"lr": 0.0},
            {"lr": -1.0},
            {"lr": math.nan},
            {"lr": math.inf},
            {"beta1": 1.0},
            {"beta1": -0.1},
            {"beta2": 1.0},
            {"beta2": math.nan},
            {"eps": 0.0},
            {"eps": -1e-8},
            {"clip_norm": 0.0},
            {"clip_norm": -3.0},
        ],
    )
    def test_rejects_invalid_hyperparameters(self, bad):
        store, _ = one_tensor_store("p", [1.0])
        with pytest.raises(ConfigurationError):
            Optimizer(store, **bad)

    def test_accepts_no_clipping_and_zero_betas(self):
        store, _ = one_tensor_store("p", [1.0])
        Optimizer(store, beta1=0.0, beta2=0.0, clip_norm=None).step()


# Shapes for the flat-step tests: 200,052 entries, i.e. three full update
# blocks and a partial one, with a 1-entry tensor that puts every later
# tensor at an odd offset.
FLAT_SHAPES = {"emb": (400, 300), "bias": (33,), "one": (1,), "W": (257, 311), "U": (7, 13)}


def reference_step(params, grads, moments, kind, t, lr, clip_norm,
                   beta1=0.9, beta2=0.999, eps=1e-8):
    """Per-tensor clipped SGD/Adam on separate arrays, in the textbook form."""
    total = 0.0
    for g in grads:
        total += float(np.dot(g.reshape(-1), g.reshape(-1)))
    norm = math.sqrt(total)
    if norm > clip_norm:
        for g in grads:
            g *= clip_norm / norm
    for p, g, (m, v) in zip(params, grads, moments):
        if kind == "sgd":
            p -= lr * g
            continue
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * (g * g)
        m_hat = m / (1.0 - beta1**t)
        v_hat = v / (1.0 - beta2**t)
        p -= lr * m_hat / (np.sqrt(v_hat) + eps)
    return norm


def flat_store(seed):
    rng = np.random.default_rng(seed)
    store = ParamStore()
    for name, shape in FLAT_SHAPES.items():
        store.create(name, rng.uniform(-0.5, 0.5, shape))
    return store


def row_sparse_grads(rng):
    """Gradients touching a few rows of each matrix and every bias entry."""
    grads = []
    scale = rng.choice([0.05, 3.0])  # mixes clipped and unclipped steps
    for shape in FLAT_SHAPES.values():
        g = np.zeros(shape)
        if len(shape) == 2:
            rows = rng.choice(shape[0], size=min(5, shape[0]), replace=False)
            g[rows] = scale * rng.standard_normal((rows.size, shape[1]))
        else:
            g[...] = scale * rng.standard_normal(shape)
        grads.append(g)
    return grads


class TestFlatStep:
    def test_store_spans_several_partial_blocks(self):
        total = flat_store(0).values.size
        assert total > 3 * UPDATE_BLOCK and total % UPDATE_BLOCK

    @pytest.mark.parametrize("kind", ["adam", "sgd"])
    def test_bit_identical_to_per_tensor_reference(self, kind):
        clip_norm, lr = 5.0, 1e-2
        store = flat_store(1)
        opt = Optimizer(store, kind=kind, lr=lr, clip_norm=clip_norm)
        params = [t.values.copy() for t in store]
        moments = [(np.zeros(t.shape), np.zeros(t.shape)) for t in store]
        rng = np.random.default_rng(2)
        clipped = 0
        for step in range(1, 51):
            grads = row_sparse_grads(rng)
            for t, g in zip(store, grads):
                t.grad[...] = g
            norm = opt.step()
            ref_norm = reference_step(params, grads, moments, kind, step, lr, clip_norm)
            store.zero_grads()
            assert norm == ref_norm
            clipped += norm > clip_norm
            for t, p in zip(store, params):
                assert np.array_equal(t.values, p), (step, t.name)
        assert 0 < clipped < 50

    def test_nan_gradient_raises_and_leaves_values_unchanged(self):
        store = flat_store(3)
        opt = Optimizer(store, kind="adam")
        for t, g in zip(store, row_sparse_grads(np.random.default_rng(4))):
            t.grad[...] = g
        opt.step()
        values, m, v = store.values.copy(), opt.m.copy(), opt.v.copy()
        store["W"].grad[100, 7] = np.nan
        with pytest.raises(NumericError, match="'W'"):
            opt.step()
        assert np.array_equal(store.values, values)
        assert np.array_equal(opt.m, m) and np.array_equal(opt.v, v)
        assert opt.step_count == 1


class TestGradCheck:
    def test_quadratic(self):
        store = ParamStore()
        x = store.create("x", [3.0])
        x.grad += 2.0 * x.values

        report = grad_check(lambda: float(x.values[0] ** 2), store)
        assert report.max_rel_error < 1e-8
        assert not store.grad.any()  # buffers are zeroed on return

    def test_constant_function(self):
        store = ParamStore()
        store.create("x", [1.0, 2.0])
        report = grad_check(lambda: 7.0, store)
        assert report.max_rel_error == 0.0

    def test_nondeterministic_loss_detected(self):
        store = ParamStore()
        store.create("x", [1.0])
        counter = iter(range(1000))

        def loss_fn():
            return float(next(counter))

        with pytest.raises(NumericError, match="deterministic"):
            grad_check(loss_fn, store)

    @pytest.mark.parametrize("eps", [0.0, -1e-5, math.nan])
    def test_rejects_non_positive_step(self, eps):
        store = ParamStore()
        store.create("x", [1.0])
        with pytest.raises(ConfigurationError, match="step"):
            grad_check(lambda: 0.0, store, eps=eps)

    def test_wrong_analytic_gradient_flagged(self):
        store = ParamStore()
        x = store.create("x", [2.0])
        x.grad += 1.0  # wrong: true gradient of x^2 is 2x

        report = grad_check(lambda: float(x.values[0] ** 2), store)
        assert report.max_rel_error > 0.1
        assert report.worst_tensor == "x"


class TestParamStore:
    def test_duplicate_name_rejected(self):
        store = ParamStore()
        store.create("w", [1.0])
        with pytest.raises(ConfigurationError):
            store.create("w", [2.0])

    def test_clone_and_load_roundtrip(self):
        store = ParamStore()
        t = store.create("w", [1.0, 2.0])
        snapshot = store.clone_values()
        t.values[:] = 0.0
        store.load_values(snapshot)
        assert list(t.values) == [1.0, 2.0]

    def test_load_rejects_shape_mismatch(self):
        store = ParamStore()
        store.create("w", [1.0, 2.0])
        with pytest.raises(ConfigurationError):
            store.load_values({"w": np.zeros(3)})

    def test_pack_makes_tensors_views_of_flat_arrays(self):
        store = ParamStore()
        a = store.create("a", [[1.0, 2.0], [3.0, 4.0]])
        b = store.create("b", [5.0])
        b.grad[0] = 0.5  # accumulated before packing survives it
        store.pack()
        assert list(store.values) == [1.0, 2.0, 3.0, 4.0, 5.0]
        assert list(store.grad) == [0.0, 0.0, 0.0, 0.0, 0.5]
        assert np.shares_memory(a.values, store.values)
        assert np.shares_memory(b.grad, store.grad)
        store.values[4] = -1.0
        assert b.values[0] == -1.0

    def test_packed_store_rejects_new_tensors(self):
        store = ParamStore()
        store.create("w", [1.0])
        store.zero_grads()  # first use packs
        with pytest.raises(ConfigurationError, match="packed"):
            store.create("v", [2.0])

    def test_clone_is_independent_of_later_updates(self):
        store = ParamStore()
        t = store.create("w", [1.0, 2.0])
        snapshot = store.clone_values()
        t.values[:] = 7.0
        assert list(snapshot["w"]) == [1.0, 2.0]
