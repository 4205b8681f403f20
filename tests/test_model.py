"""Cells, encoders, head, losses, full forward/backward."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fbrnn.candidates import BranchSplit
from fbrnn.corpus import LabelSet
from fbrnn.embeddings import Branch
from fbrnn.errors import ConfigurationError
from fbrnn.model import (
    BranchEncoder,
    ModelConfig,
    PackedLayout,
    build_model,
    gru_step,
    lstm_step,
    sigmoid_bce,
    softmax_nll,
    tiny_gradcheck,
)
from fbrnn.numerics import ParamStore, Rng, sigmoid


def make_gru_layer(store, d_in, h, rng, prefix="cell"):
    from fbrnn.model import _build_layer

    return _build_layer(store, prefix, "gru", d_in, h, rng)


def make_lstm_layer(store, d_in, h, rng, prefix="cell"):
    from fbrnn.model import _build_layer

    return _build_layer(store, prefix, "lstm", d_in, h, rng)


def zero_layer(layer):
    for name in vars(layer):
        getattr(layer, name).values.fill(0.0)


# -- independent scalar re-implementations (the oracle) ----------------------


def scalar_sigmoid(v):
    return 1.0 / (1.0 + math.exp(-v))


def scalar_affine(W, U, b, x, h):
    out = []
    for i in range(len(b)):
        acc = b[i]
        for j in range(len(x)):
            acc += W[i][j] * x[j]
        for j in range(len(h)):
            acc += U[i][j] * h[j]
        out.append(acc)
    return out


def gate_block(p, k, h):
    """(W, U, b) of gate block k of a stacked layer with hidden size h."""
    rows = slice(k * h, (k + 1) * h)
    return p.W.values[rows], p.U.values[rows], p.b.values[rows]


def scalar_gru(x, h_prev, p):
    n = len(h_prev)
    z = [scalar_sigmoid(v) for v in scalar_affine(*gate_block(p, 0, n), x, h_prev)]
    r = [scalar_sigmoid(v) for v in scalar_affine(*gate_block(p, 1, n), x, h_prev)]
    rh = [r[i] * h_prev[i] for i in range(n)]
    hc = [math.tanh(v) for v in scalar_affine(*gate_block(p, 2, n), x, rh)]
    return [(1 - z[i]) * h_prev[i] + z[i] * hc[i] for i in range(n)], (z, r, hc)


def scalar_lstm(x, h_prev, c_prev, p):
    n = len(h_prev)
    i = [scalar_sigmoid(v) for v in scalar_affine(*gate_block(p, 0, n), x, h_prev)]
    f = [scalar_sigmoid(v) for v in scalar_affine(*gate_block(p, 1, n), x, h_prev)]
    o = [scalar_sigmoid(v) for v in scalar_affine(*gate_block(p, 2, n), x, h_prev)]
    g = [math.tanh(v) for v in scalar_affine(*gate_block(p, 3, n), x, h_prev)]
    c = [f[k] * c_prev[k] + i[k] * g[k] for k in range(len(c_prev))]
    tc = [math.tanh(v) for v in c]
    h = [o[k] * tc[k] for k in range(len(c_prev))]
    return h, c, (i, f, o, g, tc)


class TestGruStep:
    def test_zero_weights_halve_hidden_state(self):
        store = ParamStore()
        layer = make_gru_layer(store, 3, 4, Rng(0))
        zero_layer(layer)
        h_prev = np.array([1.0, -2.0, 0.5, 4.0])
        h_new, _ = gru_step(np.zeros(3), h_prev, layer)
        assert np.max(np.abs(h_new - 0.5 * h_prev)) < 1e-12

    def test_zero_state_zero_weights(self):
        store = ParamStore()
        layer = make_gru_layer(store, 3, 4, Rng(0))
        zero_layer(layer)
        h_new, _ = gru_step(np.ones(3), np.zeros(4), layer)
        assert np.array_equal(h_new, np.zeros(4))

    def test_matches_scalar_oracle(self):
        store = ParamStore()
        rng = Rng(31)
        layer = make_gru_layer(store, 3, 4, rng)
        x = np.asarray(rng.uniform(-1, 1, 3))
        h_prev = np.asarray(rng.uniform(-1, 1, 4))
        h_new, acts = gru_step(x, h_prev, layer)
        oracle, oracle_acts = scalar_gru(list(x), list(h_prev), layer)
        assert np.allclose(h_new, oracle, atol=1e-12)
        assert len(acts) == len(oracle_acts) == 3  # z, r, candidate
        for a, ref in zip(acts, oracle_acts):
            assert np.max(np.abs(a - ref)) <= 1e-12

    def test_shape_mismatch_fatal(self):
        store = ParamStore()
        layer = make_gru_layer(store, 3, 4, Rng(0))
        with pytest.raises(ConfigurationError):
            gru_step(np.zeros(5), np.zeros(4), layer)


class TestLstmStep:
    def test_zero_weight_closed_form(self):
        store = ParamStore()
        layer = make_lstm_layer(store, 3, 4, Rng(0))
        zero_layer(layer)
        c_prev = np.array([1.0, -2.0, 0.5, 4.0])
        h_new, c_new, _ = lstm_step(np.zeros(3), np.zeros(4), c_prev, layer)
        assert np.max(np.abs(c_new - 0.5 * c_prev)) < 1e-12
        assert np.max(np.abs(h_new - 0.5 * np.tanh(0.5 * c_prev))) < 1e-12

    def test_zero_cell_zero_weights(self):
        store = ParamStore()
        layer = make_lstm_layer(store, 3, 4, Rng(0))
        zero_layer(layer)
        h_new, c_new, _ = lstm_step(np.ones(3), np.zeros(4), np.zeros(4), layer)
        assert np.array_equal(h_new, np.zeros(4))

    def test_matches_scalar_oracle(self):
        store = ParamStore()
        rng = Rng(47)
        layer = make_lstm_layer(store, 3, 4, rng)
        x = np.asarray(rng.uniform(-1, 1, 3))
        h_prev = np.asarray(rng.uniform(-1, 1, 4))
        c_prev = np.asarray(rng.uniform(-1, 1, 4))
        h_new, c_new, acts = lstm_step(x, h_prev, c_prev, layer)
        oracle_h, oracle_c, oracle_acts = scalar_lstm(
            list(x), list(h_prev), list(c_prev), layer
        )
        assert np.allclose(h_new, oracle_h, atol=1e-12)
        assert np.allclose(c_new, oracle_c, atol=1e-12)
        assert len(acts) == len(oracle_acts) == 5  # i, f, o, g, tanh c'
        for a, ref in zip(acts, oracle_acts):
            assert np.max(np.abs(a - ref)) <= 1e-12


def at_last_row(d_rep, cache):
    """The gradient of one sequence's packed outputs, entering at its last
    state only."""
    d_outputs = np.zeros_like(cache.outputs)
    d_outputs[-1] = d_rep
    return d_outputs


class TestBranchEncoder:
    def build(self, kind, backward=False, layers=1, seed=3):
        store = ParamStore()
        rng = Rng(seed)
        enc = BranchEncoder.build(
            Branch.RIGHT if backward else Branch.NUGGET, kind, 3, 4, layers, store, rng
        )
        return enc, store, rng

    def test_empty_branch_is_zero_vector(self):
        enc, _, _ = self.build("gru")
        rep, _ = enc.encode([])
        assert np.array_equal(rep, np.zeros(4))

    def test_single_token_is_one_step_from_zero(self):
        enc, _, rng = self.build("gru")
        x = np.asarray(rng.uniform(-1, 1, 3))
        rep, _ = enc.encode([x])
        expected, _ = gru_step(x, np.zeros(4), enc.layers[0])
        assert np.array_equal(rep, expected)

    @pytest.mark.parametrize("kind", ["gru", "lstm"])
    def test_backward_equals_forward_on_reversed(self, kind):
        enc, _, rng = self.build(kind, backward=True)
        forward_twin = BranchEncoder(Branch.NUGGET, kind, 4, enc.layers, backward=False)
        for _ in range(20):
            seq = [np.asarray(rng.uniform(-1, 1, 3)) for _ in range(1 + rng.randint(6))]
            rep_b, _ = enc.encode(seq)
            rep_f, _ = forward_twin.encode(list(reversed(seq)))
            assert np.max(np.abs(rep_b - rep_f)) < 1e-12

    @pytest.mark.parametrize("kind", ["gru", "lstm"])
    def test_backprop_rejects_a_representation_gradient(self, kind):
        """The (hidden,) gradient of the representation is not the
        gradient of the outputs: numpy would broadcast it over every row."""
        enc, store, rng = self.build(kind)
        xs = [np.asarray(rng.uniform(-1, 1, 3)) for _ in range(3)]
        _, cache = enc.encode(xs)
        for d in (np.ones(4), np.ones((1, 4)), np.ones((3, 3))):
            with pytest.raises(ConfigurationError, match="d_outputs"):
                enc.backprop(d, cache)
        assert not store.grad.any()

    @pytest.mark.parametrize("kind", ["gru", "lstm"])
    def test_stacked_layers_gradcheck(self, kind):
        from fbrnn.numerics import grad_check

        enc, store, rng = self.build(kind, layers=2, seed=11)
        xs = [np.asarray(rng.uniform(-1, 1, 3)) for _ in range(4)]
        readout = np.asarray(rng.uniform(-1, 1, 4))

        rep, cache = enc.encode(xs)
        enc.backprop(at_last_row(readout, cache), cache)

        def loss_fn():
            return float(enc.encode(xs)[0] @ readout)

        report = grad_check(loss_fn, store, eps=2e-4)
        assert report.max_rel_error < 1e-4


# -- per-gate reference: one W, U and b per gate, as the cells were first written --


def per_gate(layer, n_gates):
    """[(W_g, U_g, b_g)] views of a stacked layer, in block order."""
    return list(zip(*(np.split(t.values, n_gates) for t in (layer.W, layer.U, layer.b))))


def ref_gru_step(x, h_prev, gates):
    (W_z, U_z, b_z), (W_r, U_r, b_r), (W_c, U_c, b_c) = gates
    z = sigmoid(W_z @ x + U_z @ h_prev + b_z)
    r = sigmoid(W_r @ x + U_r @ h_prev + b_r)
    rh = r * h_prev
    hc = np.tanh(W_c @ x + U_c @ rh + b_c)
    return (1.0 - z) * h_prev + z * hc, (x, h_prev, z, r, rh, hc)


def ref_gru_backward(dh, cache, gates, grads):
    x, h_prev, z, r, rh, hc = cache
    (W_z, U_z, _), (W_r, U_r, _), (W_c, U_c, _) = gates
    dz = dh * (hc - h_prev)
    dhc = dh * z
    dh_prev = dh * (1.0 - z)
    da_c = dhc * (1.0 - hc * hc)
    drh = U_c.T @ da_c
    dr = drh * h_prev
    dh_prev = dh_prev + drh * r
    da_z = dz * z * (1.0 - z)
    dh_prev = dh_prev + U_z.T @ da_z
    da_r = dr * r * (1.0 - r)
    dh_prev = dh_prev + U_r.T @ da_r
    for (gW, gU, gb), da, h_in in zip(grads, (da_z, da_r, da_c), (h_prev, h_prev, rh)):
        gW += np.outer(da, x)
        gU += np.outer(da, h_in)
        gb += da
    return dh_prev, W_z.T @ da_z + W_r.T @ da_r + W_c.T @ da_c


def ref_lstm_step(x, h_prev, c_prev, gates):
    i, f, o, g = (W @ x + U @ h_prev + b for W, U, b in gates)
    i, f, o, g = sigmoid(i), sigmoid(f), sigmoid(o), np.tanh(g)
    c_new = f * c_prev + i * g
    tc = np.tanh(c_new)
    return o * tc, c_new, (x, h_prev, c_prev, i, f, o, g, tc)


def ref_lstm_backward(dh, dc_in, cache, gates, grads):
    x, h_prev, c_prev, i, f, o, g, tc = cache
    do = dh * tc
    dc = dc_in + dh * o * (1.0 - tc * tc)
    das = (
        dc * g * i * (1.0 - i),
        dc * c_prev * f * (1.0 - f),
        do * o * (1.0 - o),
        dc * i * (1.0 - g * g),
    )
    dh_prev = np.zeros_like(dh)
    dx = np.zeros_like(x)
    for (W, U, _), (gW, gU, gb), da in zip(gates, grads, das):
        gW += np.outer(da, x)
        gU += np.outer(da, h_prev)
        gb += da
        dh_prev += U.T @ da
        dx += W.T @ da
    return dh_prev, dc * f, dx


def ref_encode_backprop(enc, xs, d_rep):
    """Per-gate forward and BPTT of a forward-reading encoder: returns
    (representation, per-token input gradients, stacked parameter grads)."""
    n_gates = 3 if enc.kind == "gru" else 4
    layers = [per_gate(layer, n_gates) for layer in enc.layers]
    grads = [[[np.zeros_like(a) for a in gate] for gate in gates] for gates in layers]
    inputs, caches = xs, []
    for gates in layers:
        h, c, steps, outputs = np.zeros(enc.hidden), np.zeros(enc.hidden), [], []
        for x in inputs:
            if enc.kind == "gru":
                h, sc = ref_gru_step(x, h, gates)
            else:
                h, c, sc = ref_lstm_step(x, h, c, gates)
            steps.append(sc)
            outputs.append(h)
        caches.append(steps)
        inputs = outputs
    d_above = [np.zeros(enc.hidden) for _ in xs]
    d_above[-1] = d_rep
    for gates, layer_grads, steps in reversed(list(zip(layers, grads, caches))):
        dh_next, dc_next, d_inputs = np.zeros(enc.hidden), np.zeros(enc.hidden), []
        for t in reversed(range(len(xs))):
            dh = d_above[t] + dh_next
            if enc.kind == "gru":
                dh_next, dx = ref_gru_backward(dh, steps[t], gates, layer_grads)
            else:
                dh_next, dc_next, dx = ref_lstm_backward(
                    dh, dc_next, steps[t], gates, layer_grads
                )
            d_inputs.insert(0, dx)
        d_above = d_inputs
    stacked = [
        [np.concatenate(blocks) for blocks in zip(*layer_grads)] for layer_grads in grads
    ]
    return inputs[-1], d_above, stacked


def max_rel_diff(a, b):
    return float(np.max(np.abs(a - b)) / max(np.max(np.abs(b)), 1e-300))


class TestStackedGatesMatchPerGateFormulas:
    """The stacked cells against the per-gate formulas: forward within
    1e-12 (bit-identical whenever the BLAS computes each row block of a
    stacked product as it computes the block alone), gradients within
    1e-12 relative (dh_prev and dx are summed in a different order)."""

    @pytest.mark.parametrize("kind", ["gru", "lstm"])
    @pytest.mark.parametrize("d_in,hidden", [(3, 4), (12, 10)])
    def test_two_layers_nonzero_biases(self, kind, d_in, hidden):
        store = ParamStore()
        rng = Rng(23)
        enc = BranchEncoder.build(Branch.NUGGET, kind, d_in, hidden, 2, store, rng)
        for layer in enc.layers:
            layer.b.values[:] = rng.uniform(-1, 1, layer.b.size)
        xs = [np.asarray(rng.uniform(-1, 1, d_in)) for _ in range(5)]
        d_rep = np.asarray(rng.uniform(-1, 1, hidden))

        rep, cache = enc.encode(xs)
        d_xs = enc.backprop(at_last_row(d_rep, cache), cache)
        ref_rep, ref_d_xs, ref_grads = ref_encode_backprop(enc, xs, d_rep)

        assert np.max(np.abs(rep - ref_rep)) <= 1e-12
        for d_x, ref in zip(d_xs, ref_d_xs):
            assert max_rel_diff(d_x, ref) <= 1e-12
        for layer, ref_layer in zip(enc.layers, ref_grads):
            for t, ref in zip((layer.W, layer.U, layer.b), ref_layer):
                assert max_rel_diff(t.grad, ref) <= 1e-12, t.name

    @pytest.mark.parametrize("kind", ["gru", "lstm"])
    def test_empty_branch(self, kind):
        store = ParamStore()
        enc = BranchEncoder.build(Branch.LEFT, kind, 3, 4, 2, store, Rng(2))
        rep, cache = enc.encode([])
        assert np.array_equal(rep, np.zeros(4))
        d_xs = enc.backprop(np.zeros((0, 4)), cache)
        assert d_xs.shape == (0, 3)
        assert not store.grad.any()

    @pytest.mark.parametrize("kind,n_gates", [("gru", 3), ("lstm", 4)])
    def test_three_tensors_drawn_gate_by_gate(self, kind, n_gates):
        from fbrnn.model import _build_layer
        from fbrnn.numerics import init_uniform_scaled

        store = ParamStore()
        layer = _build_layer(store, "cell", kind, 3, 4, Rng(8))
        assert store.names() == ["cell.W", "cell.U", "cell.b"]
        rng = Rng(8)
        for W, U, b in per_gate(layer, n_gates):
            assert np.array_equal(W, init_uniform_scaled((4, 3), rng))
            assert np.array_equal(U, init_uniform_scaled((4, 4), rng))
            assert not b.any()


class TestPackedLayout:
    @settings(max_examples=200, deadline=None)
    @given(
        lengths=st.lists(st.integers(0, 6), max_size=8),
        backward=st.booleans(),
    )
    def test_previous_row_is_the_same_sequence_one_step_earlier(self, lengths, backward):
        """`prev` holds, for each packed row after step 0's, the row of the
        same sequence at the step before."""
        layout = PackedLayout.of(lengths, backward)
        first = layout.sizes[0] if layout.sizes else 0
        assert len(layout.prev) == layout.n_rows - first
        for seq, n in enumerate(lengths):
            for step in range(1, n):
                row = layout.row(step, seq)
                assert layout.prev[row - first] == layout.row(step - 1, seq)


class TestHoistedInputProjection:
    @pytest.mark.parametrize("kind", ["gru", "lstm"])
    @pytest.mark.parametrize("layers", [1, 2])
    @pytest.mark.parametrize("branch", [Branch.LEFT, Branch.RIGHT])
    def test_hoisted_projection_matches_a_loop_of_public_steps(self, kind, layers, branch):
        """`encode` computes each layer's `x W^T + b` for all packed rows
        in one product before its step loop; the public cells compute it
        for one vector per step. A multi-row product may sum in another
        order, so at this size the two agree within 1e-12 (measured up to
        1.4e-15), not bit for bit. Every step's state is also read back
        through `PackedLayout.row`."""
        d_in, hidden = 320, 32
        rng = Rng(31)
        enc = BranchEncoder.build(branch, kind, d_in, hidden, layers, ParamStore(), rng)
        for layer in enc.layers:
            layer.b.values[:] = rng.uniform(-1, 1, layer.b.size)
        lengths = [5, 0, 17, 1, 9, 17]
        inputs = np.asarray(rng.uniform(-1, 1, sum(lengths) * d_in)).reshape(-1, d_in)
        reps, cache = enc.encode(inputs, lengths=lengths)
        ends = np.cumsum(lengths)
        for seq, (n, end) in enumerate(zip(lengths, ends)):
            states = inputs[end - n : end][:: -1 if enc.backward else 1]
            for layer in enc.layers:
                h = c = np.zeros(hidden)
                outputs = []
                for x in states:
                    if kind == "gru":
                        h, _ = gru_step(x, h, layer)
                    else:
                        h, c, _ = lstm_step(x, h, c, layer)
                    outputs.append(h)
                states = outputs
            expected = states[-1] if n else np.zeros(hidden)
            assert np.max(np.abs(reps[seq] - expected)) <= 1e-12, seq
            for step, state in enumerate(states):
                packed = cache.outputs[cache.layout.row(step, seq)]
                assert np.max(np.abs(packed - state)) <= 1e-12, (seq, step)


class TestHeadAndLosses:
    def test_zero_weights_give_uniform_softmax(self):
        labels = LabelSet([f"T{i}" for i in range(33)])  # 34 classes
        cfg = ModelConfig(hidden_size=4, word_dim=5, branch_dim=2, dropout=0.0)
        model = build_model(cfg, ["alpha", "beta"], labels, Rng(0))
        for name in model.store.names():
            if name.startswith("head."):
                model.store[name].values.fill(0.0)
        probs = model.predict_proba(BranchSplit(("alpha",), ("beta",), ()))
        assert probs.shape == (34,)
        assert np.allclose(probs, 1 / 34, atol=1e-12)

    def test_eval_mode_deterministic(self):
        labels = LabelSet(["A", "B"])
        cfg = ModelConfig(hidden_size=4, word_dim=5, branch_dim=2, dropout=0.5)
        model = build_model(cfg, ["x", "y", "z"], labels, Rng(1))
        split = BranchSplit(("x",), ("y",), ("z",))
        assert np.array_equal(model.predict_proba(split), model.predict_proba(split))

    def test_loss_uniform_34_classes(self):
        probs = np.full(34, 1 / 34)
        loss, _ = softmax_nll(probs, 7)
        assert loss == pytest.approx(math.log(34.0), abs=1e-12)

    def test_loss_confident_is_zero(self):
        probs = np.zeros(5)
        probs[2] = 1.0
        loss, _ = softmax_nll(probs, 2)
        assert loss == 0.0

    def test_loss_clamped_at_zero_probability(self):
        probs = np.zeros(3)
        probs[0] = 1.0
        loss, _ = softmax_nll(probs, 2)
        assert loss == pytest.approx(-math.log(1e-12))

    def test_sigmoid_bce_all_half(self):
        probs = np.full(38, 0.5)
        loss, _ = sigmoid_bce(probs, np.zeros(38))
        assert loss == pytest.approx(38 * math.log(2.0), rel=1e-12)

    def test_softmax_probs_sum_to_one(self):
        labels = LabelSet(["A", "B", "C"])
        cfg = ModelConfig(hidden_size=3, word_dim=4, branch_dim=2)
        model = build_model(cfg, ["u", "v", "w"], labels, Rng(5))
        for words in ((("u",), ("v",), ("w",)), ((), ("u", "v"), ()), ((), ("w",), ())):
            probs = model.predict_proba(BranchSplit(*words))
            assert abs(probs.sum() - 1.0) <= 1e-12


class TestPredict:
    def make_sigmoid_model(self):
        labels = LabelSet(["A", "B", "C"])
        cfg = ModelConfig(
            hidden_size=3, word_dim=4, branch_dim=2, head_mode="sigmoid", dropout=0.0
        )
        return build_model(cfg, ["u", "v"], labels, Rng(2)), labels

    def test_uniform_softmax_tie_breaks_to_lowest_index(self):
        labels = LabelSet(["A", "B"])
        cfg = ModelConfig(hidden_size=3, word_dim=4, branch_dim=2, dropout=0.0)
        model = build_model(cfg, ["u"], labels, Rng(3))
        for name in model.store.names():
            if name.startswith("head."):
                model.store[name].values.fill(0.0)
        # all classes tie at 1/3; lowest index is the non-event class
        assert model.predict(BranchSplit((), ("u",), ())) == ()

    def test_sigmoid_all_below_threshold_is_non_event(self):
        model, _ = self.make_sigmoid_model()
        for name in model.store.names():
            if name.startswith("head."):
                model.store[name].values.fill(0.0)
        model.store["head.out.b"].values[:] = -10.0
        assert model.predict(BranchSplit((), ("u",), ())) == ()

    def test_sigmoid_two_types_above_threshold(self):
        model, _ = self.make_sigmoid_model()
        for name in model.store.names():
            if name.startswith("head."):
                model.store[name].values.fill(0.0)
        model.store["head.out.b"].values[:] = [10.0, 10.0, -10.0]
        assert model.predict(BranchSplit((), ("u",), ())) == ("A", "B")


class TestForwardBackward:
    def build(self, **over):
        labels = LabelSet(["A", "B", "C"])
        cfg = ModelConfig(
            hidden_size=4, word_dim=5, branch_dim=2, dropout=0.0, **over
        )
        words = ["w0", "w1", "w2", "w3", "w4", "w5"]
        model = build_model(cfg, words, labels, Rng(9))
        return model, words

    def test_empty_side_branches_leave_their_params_untouched(self):
        model, words = self.build()
        split = BranchSplit((), tuple(words[:3]), ())
        model.store.zero_grads()
        model.forward_backward([split], [("B",)])
        for name in model.store.names():
            grad = model.store[name].grad
            if name.startswith(("left.", "right.")):
                assert not grad.any(), name
        assert model.store["nugget.l0.W"].grad.any()

    def test_accumulation_is_additive(self):
        model, words = self.build()
        ex1 = ([BranchSplit((words[0],), (words[1],), (words[2],))], [("A",)])
        ex2 = ([BranchSplit((), (words[3], words[4]), (words[5],))], [()])
        model.store.zero_grads()
        model.forward_backward(*ex1)
        g1 = {n: model.store[n].grad.copy() for n in model.store.names()}
        model.store.zero_grads()
        model.forward_backward(*ex2)
        g2 = {n: model.store[n].grad.copy() for n in model.store.names()}
        model.store.zero_grads()
        model.forward_backward(*ex1)
        model.forward_backward(*ex2)
        # additive up to float addition order (rows touched more than once)
        for n in model.store.names():
            assert np.allclose(
                model.store[n].grad, g1[n] + g2[n], rtol=1e-9, atol=1e-12
            ), n

    def test_embedding_gradients_flow_only_into_used_rows(self):
        model, words = self.build()
        split = BranchSplit((words[0],), (words[1],), (words[2],))
        model.store.zero_grads()
        model.forward_backward([split], [("A",)])
        word_grad = model.store["word_emb"].grad
        used = {model.embedder.word.row(w) for w in (words[0], words[1], words[2])}
        for row in range(word_grad.shape[0]):
            if row in used:
                assert word_grad[row].any(), row
            else:
                assert not word_grad[row].any(), row
        assert model.store["branch_emb"].grad.all() is not None
        branch_grad = model.store["branch_emb"].grad
        for b in range(3):
            assert branch_grad[b].any()

    def test_multi_label_softmax_uses_first_listed_type(self):
        model, _ = self.build()
        assert model.target_class(("B", "C")) == model.labels.class_index("B")

    def test_eval_loss_matches_predicted_probability(self):
        import math

        model, words = self.build()
        split = BranchSplit((words[0],), (words[1], words[2]), (words[3],))
        probs = model.predict_proba(split)
        gold = model.labels.class_index("B")
        assert model.loss(split, ("B",)) == pytest.approx(-math.log(probs[gold]))

    def test_train_mode_requires_rng_for_dropout(self):
        # Training dropout is drawn from the rng the caller passes: without
        # one forward_backward runs as evaluation does, with one it masks.
        labels = LabelSet(["A"])
        cfg = ModelConfig(hidden_size=3, word_dim=4, branch_dim=2, dropout=0.5)
        model = build_model(cfg, ["u", "v"], labels, Rng(0))
        split = BranchSplit(("v",), ("u",), ("v",))
        assert model.forward_backward([split], [("A",)]) == [model.loss(split, ("A",))]
        rng, reference = Rng(1), Rng(1)
        model.forward_backward([split], [("A",)], rng)
        reference.random(9)  # one mask over the 3 * 3 concatenated units
        assert rng.random() == reference.random()
        _, cache = model.forward([split], Rng(1))
        assert set(np.unique(cache.head.mask)) == {0.0, 2.0}


class TestRepeatedWordsGradCheck:
    """Word rows used more than once in one example, within a branch and
    across branches: a scatter that keeps one gradient per repeated row
    fails this check."""

    @pytest.mark.parametrize("cell", ["gru", "lstm"])
    def test_word_and_branch_embeddings(self, cell):
        from fbrnn.numerics import grad_check

        cfg = ModelConfig(cell=cell, hidden_size=4, word_dim=5, branch_dim=2)
        model = build_model(cfg, ["the", "past"], LabelSet(["A", "B"]), Rng(5))
        split = BranchSplit(("the", "the"), ("the", "past"), ("past", "the"))
        model.forward_backward([split], [("B",)])
        report = grad_check(
            lambda: model.loss(split, ("B",)),
            model.store,
            eps=2e-4,
            tensors=["word_emb", "branch_emb"],
        )
        assert report.max_rel_error < 1e-4, report.per_tensor


class TestFullGradCheck:
    # the exhaustive sweep lives in the acceptance suite; spot-check here
    @pytest.mark.parametrize(
        "cell,head", [("gru", "softmax"), ("lstm", "sigmoid")]
    )
    def test_tiny_model(self, cell, head):
        report = tiny_gradcheck(cell, head)
        assert report.max_rel_error < 1e-4, report.per_tensor

    def test_without_branch_embeddings(self):
        report = tiny_gradcheck("gru", "softmax", use_branch=False)
        assert report.max_rel_error < 1e-4
