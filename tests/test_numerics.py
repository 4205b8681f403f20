"""Kernel tests: tensors, activations, init, dropout, optimizers, grad check."""

import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fbrnn.candidates import BranchSplit
from fbrnn.corpus import LabelSet
from fbrnn.errors import ConfigurationError, NumericError
from fbrnn.model import ModelConfig, build_model
from fbrnn.numerics import (
    MERGE_ENTRIES,
    UPDATE_BLOCK,
    Optimizer,
    ParamSpec,
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

    # The published SplitMix64 outputs (the reference implementation's
    # `next()` from these seeds); `next_u64` and `u64_block` mix separately.
    @pytest.mark.parametrize("seed, words", [
        (0, [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]),
        (1234567, [6457827717110365317, 3203168211198807973, 9817491932198370423,
                   4593380528125082431, 16408922859458223821]),
    ], ids=["seed-0", "seed-1234567"])
    def test_reference_vectors(self, seed, words):
        r = Rng(seed)
        assert [r.next_u64() for _ in words] == words
        assert Rng(seed).u64_block(len(words)).tolist() == words

    def test_blocked_draws_match_scalar_draws(self):
        block = Rng(9).u64_block(10)
        one_at_a_time = []
        r = Rng(9)
        for _ in range(10):
            one_at_a_time.append(r.next_u64())
        assert list(block) == one_at_a_time

    @pytest.mark.parametrize("n", [0, 1, UPDATE_BLOCK - 1, UPDATE_BLOCK, UPDATE_BLOCK + 1,
                                   2 * UPDATE_BLOCK + 3])
    def test_array_draws_are_the_scalar_stream_at_block_edges(self, n):
        """Each array draw equals n scalar draws and leaves the same state."""
        lo, hi = -0.375, 1.25
        scalar = Rng(21)
        words = [scalar.next_u64() for _ in range(n)]
        units = [scalar.random() for _ in range(n)]
        uniforms = [scalar.uniform(lo, hi) for _ in range(n)]
        blocked = Rng(21)
        block = blocked.u64_block(n)
        assert block.dtype == np.uint64 and block.tolist() == words
        assert blocked.random(n).tobytes() == np.array(units).tobytes()
        assert blocked.uniform(lo, hi, n).tobytes() == np.array(uniforms).tobytes()
        assert blocked.next_u64() == scalar.next_u64()

    @pytest.mark.parametrize("shape", [(1,), (UPDATE_BLOCK + 5,), (7, 3), (3, UPDATE_BLOCK // 2 + 1)])
    def test_draws_into_an_output_array_as_into_a_new_one(self, shape):
        """`out` is filled row-major with the bits of `n = out.size` draws,
        and the stream ends in the same state."""
        into, fresh = Rng(4), Rng(4)
        out = np.full(shape, np.nan)
        assert into.uniform(-0.5, 2.0, out=out) is out
        expected = fresh.uniform(-0.5, 2.0, out.size)
        assert out.reshape(-1).tobytes() == expected.tobytes()
        assert into.next_u64() == fresh.next_u64()

    def test_refuses_an_output_it_cannot_fill_in_place(self):
        out = np.zeros((4, 6))
        with pytest.raises(ConfigurationError, match="C-contiguous"):
            Rng(0).uniform(0.0, 1.0, out=out[:, :3])
        assert not out.any()

    def test_scalar_and_array_draws_interleave_into_one_stream(self):
        sizes = [3, 1, UPDATE_BLOCK + 2, 0, 5]
        whole = Rng(8).u64_block(sum(sizes) + len(sizes)).tolist()
        r, drawn = Rng(8), []
        for n in sizes:
            drawn.append(r.next_u64())
            drawn.extend(r.u64_block(n).tolist())
        assert drawn == whole

    def test_scalar_floats_have_the_bits_of_one_element_arrays(self):
        for seed in range(50):
            unit, one = Rng(seed).random(), Rng(seed).random(1)[0]
            assert type(unit) is float and unit.hex() == float(one).hex()
            u, one = Rng(seed).uniform(-0.3, 0.7), Rng(seed).uniform(-0.3, 0.7, 1)[0]
            assert type(u) is float and u.hex() == float(one).hex()

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

    def test_weighted_index_total_is_the_last_running_sum(self, monkeypatch):
        """Ten weights 0.1 run to 0.9999999999999999, which builtin `sum`
        (compensated from Python 3.12) rounds to 1.0. With that total, the
        top draw would land on the last index, whose weight is 0."""
        rng = Rng(0)
        monkeypatch.setattr(rng, "random", lambda: 1 - 2**-53)
        assert rng.weighted_index([0.1] * 10 + [0.0]) == 9

    @staticmethod
    def reference_index(weights, r):
        """The draw rule as a loop: the total is the running sum, and the
        index is the first whose running sum exceeds r * total."""
        total = 0.0
        for w in weights:
            total += w
        acc = 0.0
        for i, w in enumerate(weights):
            acc += w
            if r * total < acc:
                return i
        return len(weights) - 1

    def test_weighted_index_is_the_first_running_sum_above_the_draw(self, monkeypatch):
        """Over seeded vectors mixing zeros, ints and floats, every seeded
        draw and both extreme draws pick the reference loop's index, and
        never an index of weight 0."""
        shapes = Rng(99)
        kinds = [lambda: 0, lambda: 0.0, lambda: 1 + shapes.randint(5),
                 lambda: 0.1 * (1 + shapes.randint(9)), lambda: shapes.random()]
        for seed in range(2000):
            weights = [shapes.choice(kinds)() for _ in range(1 + shapes.randint(12))]
            if not any(weights):
                weights.append(0.1)
            drawn, reference = Rng(seed), Rng(seed)
            for _ in range(10):
                i = drawn.weighted_index(weights)
                assert i == self.reference_index(weights, reference.random()) and weights[i]
            assert drawn.next_u64() == reference.next_u64()
            for r in (0.0, 1 - 2**-53):
                monkeypatch.setattr(drawn, "random", lambda: r)
                i = drawn.weighted_index(weights)
                assert i == self.reference_index(weights, r) and weights[i]

    @pytest.mark.parametrize("weights", [
        [1.0, math.nan, 1.0], [math.inf, 1.0], [1.0, -0.5, 1.0], [-math.inf, 1.0],
        [0.0, 0.0], [0, 0], [], [1e308, 1e308],
    ], ids=["nan", "inf", "negative", "minus-inf", "zero-sum", "int-zero-sum", "empty",
            "sum-overflows"])
    def test_weighted_index_refuses_unusable_weights(self, weights):
        rng = Rng(11)
        with pytest.raises(ConfigurationError, match="finite non-negative weights"):
            rng.weighted_index(weights)
        assert rng.next_u64() == Rng(11).next_u64()  # nothing drawn


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


_INIT_AND_MEASURE = """
import json, resource
import numpy as np
from fbrnn.numerics import Rng, init_uniform_scaled
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
table = init_uniform_scaled(np.empty((20000, 300)), Rng(1))
after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(json.dumps({"grown_kb": after - before, "result_kb": table.nbytes / 1024}))
"""


class TestInit:
    def test_bound(self):
        t = init_uniform_scaled(np.empty((4, 4)), Rng(0))
        assert np.abs(t).max() <= math.sqrt(6 / 8)

    def test_deterministic(self):
        a = init_uniform_scaled(np.empty((5, 3)), Rng(99))
        b = init_uniform_scaled(np.empty((5, 3)), Rng(99))
        assert np.array_equal(a, b)

    def test_draws_into_its_output_in_place(self):
        """The fans come from `out`'s shape; a vector's fan_in is its length.
        Without an rng `out` keeps its values."""
        out = np.full((3, 5), 7.0)
        assert init_uniform_scaled(out, None) is out and (out == 7.0).all()
        assert init_uniform_scaled(out, Rng(2)) is out
        bound = math.sqrt(6 / (3 + 5))
        assert np.array_equal(out.reshape(-1), Rng(2).uniform(-bound, bound, 15))
        vector = init_uniform_scaled(np.empty(6), Rng(2))
        bound = math.sqrt(6 / 12)
        assert np.array_equal(vector, Rng(2).uniform(-bound, bound, 6))

    def test_statistical_mean(self):
        # 1e5 draws: empirical mean of a zero-mean uniform is ~0
        t = init_uniform_scaled(np.empty((50_000, 2)), Rng(3))
        assert abs(t.mean()) < 0.01

    def test_draw_allocates_little_beyond_its_result(self):
        """A 20k x 300 word table is drawn block by block into its result:
        a fresh interpreter's peak RSS grows by the table's 45.8 MB and the
        O(block) scratch, not by full-size temporaries."""
        src = str(Path(__file__).resolve().parents[1] / "src")
        path_var = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", _INIT_AND_MEASURE],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path_var), check=True,
        )
        result = json.loads(proc.stdout)
        assert result["grown_kb"] <= 1.15 * result["result_kb"]  # ru_maxrss is in KiB on Linux


class TestDropout:
    def test_eval_mode_identity(self):
        # Evaluation passes no rng: the head's dropout is then the identity,
        # even at a rate that would zero nearly every unit.
        from fbrnn.model import Head

        out_w, out_b = ParamStore([("out.W", (3, 64)), ("out.b", (3,))])
        init_uniform_scaled(out_w.values, Rng(4))
        rep = np.linspace(-1.0, 1.0, 64)
        probs, cache = Head([(out_w, out_b)], "softmax", 0.9).forward(rep)
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


def store_of(tensors):
    """A store declaring each named array of `tensors`, in order, holding its values."""
    arrays = {name: np.asarray(values, dtype=np.float64) for name, values in tensors.items()}
    store = ParamStore([(name, a.shape) for name, a in arrays.items()])
    for name, a in arrays.items():
        store[name].values[...] = a
    return store


def one_tensor_store(name, values):
    store = store_of({name: values})
    return store, store[name]


class TestOptimizers:
    def test_sgd_arithmetic(self):
        store, p = one_tensor_store("p", [1.0])
        p.grad[:] = 2.0
        Optimizer(store, kind="sgd", lr=0.1, clip_norm=None).step()
        assert p.values[0] == pytest.approx(0.8)

    def test_infinite_eps_is_rejected(self):
        """eps = inf would turn every Adam step into p - 0: a run that
        trains nothing and says nothing."""
        store, _ = one_tensor_store("p", [1.0])
        with pytest.raises(ConfigurationError, match="eps must be finite and positive"):
            Optimizer(store, eps=float("inf"))

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
        store, t = one_tensor_store("t", np.zeros(4))
        t.grad[:] = 3.0  # norm 6
        norm = clip_gradients(store, 3.0)
        assert norm == pytest.approx(6.0)
        assert np.linalg.norm(t.grad) == pytest.approx(3.0)

    def test_clip_names_nonfinite_tensor(self):
        store, t = one_tensor_store("exploding", np.zeros(2))
        t.grad[:] = np.nan
        with pytest.raises(NumericError, match="exploding"):
            clip_gradients(store, 5.0)

    def test_optimizer_step_counts(self):
        store, _ = one_tensor_store("a", np.ones(2))
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
        total += float(np.einsum("i,i->", g.reshape(-1), g.reshape(-1)))
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
    return store_of({name: rng.uniform(-0.5, 0.5, shape) for name, shape in FLAT_SHAPES.items()})


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


# A model whose word table has rows that no split below uses.
USED_WORDS = ["w0", "w1", "w2", "w3"]
IDLE_WORDS = [f"idle{i}" for i in range(40)]


def model_with_idle_rows():
    cfg = ModelConfig(hidden_size=4, word_dim=6, branch_dim=3, dropout=0.0)
    return build_model(cfg, USED_WORDS + IDLE_WORDS, LabelSet(["A", "B"]), Rng(5))


def training_batches(n):
    rng = np.random.default_rng(11)
    for _ in range(n):
        words = [str(w) for w in rng.choice(USED_WORDS, size=5)]
        types = (("A",), (), ("B",))[rng.integers(3)]
        yield BranchSplit(tuple(words[:2]), (words[2],), tuple(words[3:])), types


class TestLiveRows:
    """The optimizer visits the word table's reached rows only. An
    unreached row has grad = m = v = 0, so the dense update subtracts +0.0
    from it: skipping it must give the same bits."""

    @pytest.mark.parametrize("kind", ["adam", "sgd"])
    def test_bit_identical_to_dense_step_without_clipping(self, kind):
        model = model_with_idle_rows()
        store, word = model.store, model.store["word_emb"]
        idle = model.embedder.word.rows(IDLE_WORDS)
        initial = word.values[idle].copy()
        opt = Optimizer(store, kind=kind, lr=1e-2, clip_norm=None)
        values, m, v = store.values.copy(), np.zeros_like(store.values), np.zeros_like(store.values)
        scratch = (np.empty(UPDATE_BLOCK), np.empty(UPDATE_BLOCK))
        for step, (split, types) in enumerate(training_batches(40), 1):
            model.forward_backward([split], [types])
            grad = store.grad.copy()
            if kind == "adam":
                adam_step(values, grad, m, v, step, 1e-2, 0.9, 0.999, 1e-8, scratch)
            else:
                sgd_step(values, grad, 1e-2, scratch[0])
            opt.step()
            store.zero_grads()
            assert np.array_equal(store.values, values), step
            if kind == "adam":
                assert np.array_equal(opt.m, m) and np.array_equal(opt.v, v), step
        assert not store.grad.any()
        assert not word.reached[idle].any() and word.reached.sum() == len(USED_WORDS)
        assert np.array_equal(word.values[idle], initial)
        if kind == "adam":
            for moment in (opt.m, opt.v):
                assert not moment[: word.size].reshape(word.shape)[idle].any()

    def test_clipped_norm_within_tolerance_of_dense_norm(self):
        """Only the word table's sum of squares changes order: it runs over
        reached rows. Stated tolerance 1e-12 relative; measured 0 here, where
        pre-clip norms run from 1.1 to 2.8."""
        model = model_with_idle_rows()
        store = model.store
        opt = Optimizer(store, kind="adam", lr=1e-2, clip_norm=1.5)
        clipped = 0
        for split, types in training_batches(40):
            model.forward_backward([split], [types])
            dense = math.sqrt(sum(float(np.dot(t.grad.reshape(-1), t.grad.reshape(-1)))
                                  for t in store))
            norm = opt.step()
            assert norm == pytest.approx(dense, rel=1e-12, abs=0.0)
            if norm > 1.5:
                clipped += 1
                assert math.sqrt(float(np.dot(store.grad, store.grad))) == pytest.approx(
                    1.5, rel=1e-12
                )
            store.zero_grads()
        assert 0 < clipped < 40

    def test_nan_in_a_reached_word_row_raises_and_changes_nothing(self):
        model = model_with_idle_rows()
        store, word = model.store, model.store["word_emb"]
        opt = Optimizer(store, kind="adam")
        batches = training_batches(2)
        split, types = next(batches)
        model.forward_backward([split], [types])
        opt.step()
        store.zero_grads()
        values, m, v = store.values.copy(), opt.m.copy(), opt.v.copy()
        split, types = next(batches)
        model.forward_backward([split], [types])
        [row] = model.embedder.word.rows(split.nugget[:1])
        assert word.reached[row]
        word.grad[row, 2] = np.nan
        with pytest.raises(NumericError, match="'word_emb'"):
            opt.step()
        assert np.array_equal(store.values, values)
        assert np.array_equal(opt.m, m) and np.array_equal(opt.v, v)
        assert opt.step_count == 1

    @pytest.mark.parametrize("clip_norm", [None, 5.0])
    @pytest.mark.parametrize("kind", ["adam", "sgd"])
    def test_runs_of_reached_rows_join_across_short_gaps(self, kind, clip_norm):
        """A 300-wide table whose reached rows lie closer and farther apart
        than MERGE_ENTRIES: the live regions are slices joining the close
        runs, and stepping them in place leaves the dense step's bits."""
        width, n_rows = 300, 80
        join = MERGE_ENTRIES // width  # the longest gap of unreached rows that joins
        runs = [(2, 5), (5 + join, 6 + join), (7 + 2 * join, 9 + 2 * join), (60, 61), (79, 80)]
        reached = np.concatenate([np.arange(a, b) for a, b in runs])
        store = ParamStore([("pre", (3, 5)), ("emb", (n_rows, width), True), ("post", (7,))])
        pre, emb, post = store
        rng = np.random.default_rng(6)
        store.values[:] = rng.uniform(-0.5, 0.5, store.values.size)
        idle = np.setdiff1d(np.arange(n_rows), reached)
        initial = emb.values[idle].copy()
        opt = Optimizer(store, kind=kind, lr=1e-2, clip_norm=clip_norm)
        values, m, v = store.values.copy(), np.zeros_like(store.values), np.zeros_like(store.values)
        scratch = (np.empty(UPDATE_BLOCK), np.empty(UPDATE_BLOCK))
        clipped = 0
        for step in range(1, 41):
            scale = rng.choice([0.05, 3.0])
            rows = reached if step == 1 else np.sort(rng.choice(reached, 4, replace=False))
            emb.add_row_grads(rows, scale * rng.standard_normal((rows.size, width)))
            for t in (pre, post):
                t.grad[...] = scale * rng.standard_normal(t.shape)
            grad = store.grad.copy()
            norm = opt.step()
            if clip_norm is not None and norm > clip_norm:
                grad *= clip_norm / norm
                clipped += 1
            if kind == "adam":
                adam_step(values, grad, m, v, step, 1e-2, 0.9, 0.999, 1e-8, scratch)
            else:
                sgd_step(values, grad, 1e-2, scratch[0])
            store.zero_grads()
            assert np.array_equal(store.values, values), step
            if kind == "adam":
                assert np.array_equal(opt.m, m) and np.array_equal(opt.v, v), step
        base = pre.size
        assert store.live_regions() == [
            slice(0, base),
            slice(base + 2 * width, base + (6 + join) * width),
            slice(base + (7 + 2 * join) * width, base + (9 + 2 * join) * width),
            slice(base + 60 * width, base + 61 * width),
            slice(base + 79 * width, base + 80 * width),
            slice(base + emb.size, store.values.size),
        ]
        assert not store.grad.any()
        assert clipped == 0 if clip_norm is None else 0 < clipped < 40
        assert np.array_equal(emb.values[idle], initial)
        if kind == "adam":
            for moment in (opt.m, opt.v):
                assert not moment[base : base + emb.size].reshape(emb.shape)[idle].any()

    @pytest.mark.parametrize("gap", [0, 1, MERGE_ENTRIES // 256, MERGE_ENTRIES // 256 + 1])
    def test_two_runs_join_when_their_gap_holds_at_most_merge_entries(self, gap):
        store = ParamStore([("emb", (gap + 12, 256), True)])
        store["emb"].add_row_grads(np.array([3, 4 + gap]), np.ones((2, 256)))
        runs = [(3, 5 + gap)] if gap * 256 <= MERGE_ENTRIES else [(3, 4), (4 + gap, 5 + gap)]
        assert store.live_regions() == [slice(256 * a, 256 * b) for a, b in runs]

    def test_hand_built_store_is_one_dense_region(self):
        store = flat_store(0)
        n = store.values.size
        assert store.live_regions() == [slice(0, n)]


class TestGradCheck:
    def test_quadratic(self):
        store, x = one_tensor_store("x", [3.0])
        x.grad += 2.0 * x.values

        report = grad_check(lambda: float(x.values[0] ** 2), store)
        assert report.max_rel_error < 1e-8
        assert not store.grad.any()  # buffers are zeroed on return

    def test_constant_function(self):
        store, _ = one_tensor_store("x", [1.0, 2.0])
        report = grad_check(lambda: 7.0, store)
        assert report.max_rel_error == 0.0

    def test_nondeterministic_loss_detected(self):
        store, _ = one_tensor_store("x", [1.0])
        counter = iter(range(1000))

        def loss_fn():
            return float(next(counter))

        with pytest.raises(NumericError, match="deterministic"):
            grad_check(loss_fn, store)

    @pytest.mark.parametrize("eps", [0.0, -1e-5, math.nan])
    def test_rejects_non_positive_step(self, eps):
        store, _ = one_tensor_store("x", [1.0])
        with pytest.raises(ConfigurationError, match="step"):
            grad_check(lambda: 0.0, store, eps=eps)

    def test_wrong_analytic_gradient_flagged(self):
        store, x = one_tensor_store("x", [2.0])
        x.grad += 1.0  # wrong: true gradient of x^2 is 2x

        report = grad_check(lambda: float(x.values[0] ** 2), store)
        assert report.max_rel_error > 0.1
        assert report.worst_tensor == "x"

    @pytest.mark.parametrize(
        "bad_grad, bad_loss",
        [(math.nan, False), (math.inf, False), (None, True)],
        ids=["nan-gradient", "inf-gradient", "nan-loss-at-a-probe"],
    )
    def test_non_finite_entry_fails(self, bad_grad, bad_loss):
        """NaN compares false with every bound, so it must not be dropped
        as a small error: it counts as inf, and the report names its tensor."""
        store = store_of({"w": [3.0], "x": [1.0, 2.0]})
        x = store["x"]
        x.grad += 2.0 * x.values
        if bad_grad is not None:
            x.grad[0] = bad_grad

        def loss_fn():
            if bad_loss and x.values[0] != 1.0:
                return math.nan
            return float(np.sum(x.values**2))

        report = grad_check(loss_fn, store)
        assert report.max_rel_error == math.inf
        assert report.worst_tensor == "x"
        assert report.per_tensor == {"w": 0.0, "x": math.inf}


class TestParamStore:
    def test_duplicate_name_rejected(self):
        with pytest.raises(ConfigurationError, match="duplicate tensor name 'w'"):
            ParamStore([("w", (1,)), ("v", (2,)), ("w", (2,))])

    @pytest.mark.parametrize("shape", [(), (0,), (3, 0), (-1, 2)])
    def test_tensor_without_elements_rejected(self, shape):
        with pytest.raises(ConfigurationError, match="tensor 'w' has no elements"):
            ParamStore([("v", (2,)), ("w", shape)])

    def test_clone_and_load_roundtrip(self):
        store, t = one_tensor_store("w", [1.0, 2.0])
        snapshot = store.clone_values()
        t.values[:] = 0.0
        store.load_values(snapshot)
        assert list(t.values) == [1.0, 2.0]

    def test_load_rejects_shape_mismatch(self):
        """The snapshot is flat: one of another store's size does not fit."""
        store, _ = one_tensor_store("w", [1.0, 2.0])
        with pytest.raises(ValueError):
            store.load_values(np.zeros(3))

    def test_tensors_are_views_of_flat_arrays_from_the_start(self):
        store = ParamStore([ParamSpec("a", (2, 2)), ("b", (1,)), ("z", (2,), True)])
        a, b, z = store
        assert (a.shape, b.shape, z.shape) == ((2, 2), (1,), (2,))
        assert a.reached is None and z.reached.tolist() == [False, False]
        assert not store.values.any() and not store.grad.any()
        a.values[...] = [[1.0, 2.0], [3.0, 4.0]]
        b.values[0] = 5.0
        z.values[:] = -0.0
        b.grad[0] = 0.5
        assert list(store.values) == [1.0, 2.0, 3.0, 4.0, 5.0, 0.0, 0.0]
        assert list(store.grad) == [0.0, 0.0, 0.0, 0.0, 0.5, 0.0, 0.0]
        assert np.signbit(store.values[5:]).all()
        assert np.shares_memory(a.values, store.values)
        assert np.shares_memory(b.grad, store.grad)
        store.values[4] = -1.0
        assert b.values[0] == -1.0

    def test_first_nonfinite_names_the_first_tensor_that_holds_one(self):
        """The check runs one UPDATE_BLOCK piece at a time: a NaN or Inf
        on either side of a piece boundary, or in the last entry, names its
        tensor; `fill` writes each piece before it is checked."""
        store = ParamStore([("a", (UPDATE_BLOCK + 3,)), ("b", (UPDATE_BLOCK - 1, 2)), ("c", (1,))])
        assert store.first_nonfinite() is None
        for index, name in [(0, "a"), (UPDATE_BLOCK - 1, "a"), (UPDATE_BLOCK, "a"),
                            (UPDATE_BLOCK + 3, "b"), (2 * UPDATE_BLOCK, "b"),
                            (store.values.size - 1, "c")]:
            for bad in (np.nan, -np.inf):
                store.values[index] = bad
                assert store.first_nonfinite() == name, index
                store.values[-1] = np.inf  # a later one does not change the answer
                assert store.first_nonfinite() == name, index
                store.values[:] = 0.0
        pieces = []
        assert store.first_nonfinite(lambda piece: pieces.append(piece.size)) is None
        assert pieces == [UPDATE_BLOCK] * 3 + [2]

    def test_clone_is_independent_of_later_updates(self):
        store, t = one_tensor_store("w", [1.0, 2.0])
        snapshot = store.clone_values()
        t.values[:] = 7.0
        assert list(snapshot) == [1.0, 2.0]
