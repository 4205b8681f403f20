"""Cells, encoders, head, losses, full forward/backward."""

import hashlib
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
    _layout,
    build_model,
    gru_step,
    lstm_step,
    sigmoid_bce,
    softmax_nll,
    tiny_gradcheck,
)
from fbrnn.numerics import ParamStore, Rng, sigmoid, softmax


def make_layer(kind, d_in, h, rng, prefix="cell"):
    """One layer in a store of its own, declared by `_layer_specs`."""
    from fbrnn.model import _build_layer, _layer_specs

    store = ParamStore(_layer_specs(prefix, kind, d_in, h))
    return _build_layer(store, prefix, kind, d_in, h, rng)


def make_encoder(branch, kind, d_in, hidden, n_layers, rng):
    """An encoder and its own store, declared by `BranchEncoder.specs`."""
    store = ParamStore(BranchEncoder.specs(branch, kind, d_in, hidden, n_layers))
    return BranchEncoder.build(branch, kind, d_in, hidden, n_layers, store, rng), store


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
        layer = make_layer("gru", 3, 4, Rng(0))
        zero_layer(layer)
        h_prev = np.array([1.0, -2.0, 0.5, 4.0])
        h_new, _ = gru_step(np.zeros(3), h_prev, layer)
        assert np.array_equal(h_new, 0.5 * h_prev)  # z = 0.5 exactly, h + z (0 - h)

    def test_zero_state_zero_weights(self):
        layer = make_layer("gru", 3, 4, Rng(0))
        zero_layer(layer)
        h_new, _ = gru_step(np.ones(3), np.zeros(4), layer)
        assert np.array_equal(h_new, np.zeros(4))

    def test_matches_scalar_oracle(self):
        rng = Rng(31)
        layer = make_layer("gru", 3, 4, rng)
        x = np.asarray(rng.uniform(-1, 1, 3))
        h_prev = np.asarray(rng.uniform(-1, 1, 4))
        h_new, acts = gru_step(x, h_prev, layer)
        oracle, oracle_acts = scalar_gru(list(x), list(h_prev), layer)
        assert np.allclose(h_new, oracle, atol=1e-12)
        assert len(acts) == len(oracle_acts) == 3  # z, r, candidate
        for a, ref in zip(acts, oracle_acts):
            assert np.max(np.abs(a - ref)) <= 1e-12

    def test_shape_mismatch_fatal(self):
        layer = make_layer("gru", 3, 4, Rng(0))
        with pytest.raises(ConfigurationError):
            gru_step(np.zeros(5), np.zeros(4), layer)


class TestLstmStep:
    def test_zero_weight_closed_form(self):
        layer = make_layer("lstm", 3, 4, Rng(0))
        zero_layer(layer)
        c_prev = np.array([1.0, -2.0, 0.5, 4.0])
        h_new, c_new, _ = lstm_step(np.zeros(3), np.zeros(4), c_prev, layer)
        assert np.array_equal(c_new, 0.5 * c_prev)
        assert np.array_equal(h_new, 0.5 * np.tanh(0.5 * c_prev))

    def test_zero_cell_zero_weights(self):
        layer = make_layer("lstm", 3, 4, Rng(0))
        zero_layer(layer)
        h_new, c_new, _ = lstm_step(np.ones(3), np.zeros(4), np.zeros(4), layer)
        assert np.array_equal(h_new, np.zeros(4))

    def test_matches_scalar_oracle(self):
        rng = Rng(47)
        layer = make_layer("lstm", 3, 4, rng)
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


class TestTanhGates:
    """Both cells take each sigmoid gate as 0.5 tanh(a/2) + 0.5, the 0.5
    folded into the gate columns of the projection and of U^T (exact).
    Against `numerics.sigmoid` it is within 2^-51 absolute (measured
    2^-52): equal at 0 and at the tails, where tanh rounds to +-1, and
    where sigmoid is below about 1e-17 it gives 0 (up to 100% relative
    error there)."""

    VALUES = np.concatenate(
        ([0.0, -800.0, 800.0, -40.0, 40.0], np.linspace(-800, 800, 16001),
         np.linspace(-40, 40, 40001))
    )

    def gates_of(self, kind, values):
        """The sigmoid gates of one step from a zero state whose input is
        one of `values` per row: gate pre-activations equal to the value."""
        layer = make_layer(kind, 1, 1, Rng(0))
        zero_layer(layer)
        layer.W.values[:-1] = 1.0  # every gate but the tanh one reads x
        x, zeros = values[:, None], np.zeros((len(values), 1))
        if kind == "gru":
            _, acts = gru_step(x, zeros, layer)
            return acts[:2]
        _, _, acts = lstm_step(x, zeros, zeros, layer)
        return acts[:3]

    @pytest.mark.parametrize("kind", ["gru", "lstm"])
    def test_gate_form_against_sigmoid(self, kind):
        for gate in self.gates_of(kind, self.VALUES):
            gate = gate[:, 0]
            assert np.max(np.abs(gate - sigmoid(self.VALUES))) <= 2.0**-51
            assert gate[0] == 0.5
            assert gate[1] == 0.0 and gate[2] == 1.0  # at -800 and 800
            assert gate[3] == 0.0 and sigmoid(-40.0) > 0.0  # tanh(-20) rounds to -1
            assert gate[4] == 1.0 == sigmoid(40.0)
            assert ((gate >= 0.0) & (gate <= 1.0)).all()


@pytest.mark.parametrize("kind", ["gru", "lstm"])
def test_recurrence_is_row_major_with_the_copy_then_halve_bits(kind):
    """`_recurrence` halves U's sigmoid gate rows before it transposes.
    Its blocks hold the bits of copying U^T and halving the sigmoid gates'
    columns, and are row-major column blocks of one C-contiguous array: an
    F-ordered U^T moved per-sentence probabilities in the last bits, since
    BLAS sums a transposed operand in another order."""
    from fbrnn.model import _recurrence

    h = 32
    layer = make_layer(kind, 5, h, Rng(12))
    reference = layer.U.values.T.copy()
    reference[:, :-h] *= 0.5
    blocks = _recurrence(layer)
    assert np.concatenate(blocks, axis=1).tobytes() == reference.tobytes()
    for block in blocks:
        assert (block if block.base is None else block.base).flags.c_contiguous
        assert block.strides[1] == block.itemsize


def at_last_row(d_rep, cache):
    """The gradient of one sequence's packed outputs, entering at its last
    state only."""
    d_outputs = np.zeros_like(cache.outputs)
    d_outputs[-1] = d_rep
    return d_outputs


class TestBranchEncoder:
    def build(self, kind, backward=False, layers=1, seed=3):
        rng = Rng(seed)
        enc, store = make_encoder(
            Branch.RIGHT if backward else Branch.NUGGET, kind, 3, 4, layers, rng
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
    def test_backprop_rejects_an_input_row_no_token_read(self, kind):
        """Layer 0's input gradient has one summed row per input row, so
        every row must be read; the error comes before any gradient."""
        enc, store, rng = self.build(kind, layers=2)
        x = rng.uniform(-1, 1, 9).reshape(3, 3)
        _, cache = enc.encode(x, index=np.array([0, 2]))
        with pytest.raises(ConfigurationError, match="read 2 of 3 input rows"):
            enc.backprop(np.ones(cache.outputs.shape), cache)
        assert not store.grad.any()
        _, cache = enc.encode(x, index=np.array([2, 0, 2, 1]))
        assert enc.backprop(np.ones(cache.outputs.shape), cache).shape == (3, 3)

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


def ref_encode_backprop(enc, xs, d_top):
    """Per-gate forward and BPTT of a forward-reading encoder, `d_top` the
    gradient of the top state after each step: returns (representation,
    per-token input gradients, stacked parameter grads)."""
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
    d_above = list(d_top)
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
        rng = Rng(23)
        enc, _ = make_encoder(Branch.NUGGET, kind, d_in, hidden, 2, rng)
        for layer in enc.layers:
            layer.b.values[:] = rng.uniform(-1, 1, layer.b.size)
        xs = [np.asarray(rng.uniform(-1, 1, d_in)) for _ in range(5)]
        d_rep = np.asarray(rng.uniform(-1, 1, hidden))

        rep, cache = enc.encode(xs)
        d_xs = enc.backprop(at_last_row(d_rep, cache), cache)
        ref_rep, ref_d_xs, ref_grads = ref_encode_backprop(
            enc, xs, [np.zeros(hidden)] * (len(xs) - 1) + [d_rep]
        )

        assert np.max(np.abs(rep - ref_rep)) <= 1e-12
        for d_x, ref in zip(d_xs, ref_d_xs):
            assert max_rel_diff(d_x, ref) <= 1e-12
        for layer, ref_layer in zip(enc.layers, ref_grads):
            for t, ref in zip((layer.W, layer.U, layer.b), ref_layer):
                assert max_rel_diff(t.grad, ref) <= 1e-12, t.name

    @pytest.mark.parametrize("kind", ["gru", "lstm"])
    def test_empty_branch(self, kind):
        enc, store = make_encoder(Branch.LEFT, kind, 3, 4, 2, Rng(2))
        rep, cache = enc.encode([])
        assert np.array_equal(rep, np.zeros(4))
        d_xs = enc.backprop(np.zeros((0, 4)), cache)
        assert d_xs.shape == (0, 3)
        assert not store.grad.any()

    @pytest.mark.parametrize("kind,n_gates", [("gru", 3), ("lstm", 4)])
    def test_three_tensors_drawn_gate_by_gate(self, kind, n_gates):
        from fbrnn.model import _build_layer, _layer_specs
        from fbrnn.numerics import init_uniform_scaled

        store = ParamStore(_layer_specs("cell", kind, 3, 4))
        layer = _build_layer(store, "cell", kind, 3, 4, Rng(8))
        assert store.names() == ["cell.W", "cell.U", "cell.b"]
        rng = Rng(8)
        for W, U, b in per_gate(layer, n_gates):
            assert np.array_equal(W, init_uniform_scaled(np.empty((4, 3)), rng))
            assert np.array_equal(U, init_uniform_scaled(np.empty((4, 4)), rng))
            assert not b.any()


class TestHoistedFactorBackprop:
    @pytest.mark.parametrize("kind", ["gru", "lstm"])
    @pytest.mark.parametrize("branch", [Branch.LEFT, Branch.RIGHT])
    def test_matches_the_per_gate_backward_on_mixed_lengths(self, kind, branch):
        """`backprop` computes every factor of the step gradients that does
        not depend on dh once per layer, over all packed rows, and its step
        loop only the products with dh. Against the per-gate reference
        backward run sequence by sequence, with gradient entering the top
        state of every step of a mixed-length batch with empty sequences,
        input and parameter gradients agree within 1e-12 relative."""
        d_in, hidden = 320, 32
        rng = Rng(57)
        enc, _ = make_encoder(branch, kind, d_in, hidden, 2, rng)
        for layer in enc.layers:
            layer.b.values[:] = rng.uniform(-1, 1, layer.b.size)
        lengths = [5, 0, 17, 1, 9, 17, 0]
        inputs = np.asarray(rng.uniform(-1, 1, sum(lengths) * d_in)).reshape(-1, d_in)
        _, cache = enc.encode(inputs, lengths=lengths)
        d_outputs = np.asarray(rng.uniform(-1, 1, cache.outputs.size)).reshape(cache.outputs.shape)
        d_inputs = enc.backprop(d_outputs, cache)

        ref_d_inputs = np.zeros_like(inputs)
        ref_grads = [[np.zeros(t.shape) for t in (l.W, l.U, l.b)] for l in enc.layers]
        for seq, (n, end) in enumerate(zip(lengths, np.cumsum(lengths))):
            if not n:
                continue
            tokens = np.arange(end - n, end)[:: -1 if enc.backward else 1]  # in step order
            d_top = [d_outputs[cache.layout.row(step, seq)] for step in range(n)]
            _, d_xs, grads = ref_encode_backprop(enc, list(inputs[tokens]), d_top)
            ref_d_inputs[tokens] = d_xs
            for acc, layer_grads in zip(ref_grads, grads):
                for a, g in zip(acc, layer_grads):
                    a += g
        assert max_rel_diff(d_inputs, ref_d_inputs) <= 1e-12
        for layer, ref_layer in zip(enc.layers, ref_grads):
            for t, ref in zip((layer.W, layer.U, layer.b), ref_layer):
                assert max_rel_diff(t.grad, ref) <= 1e-12, t.name


class TestPackedLayout:
    @settings(max_examples=200, deadline=None)
    @given(
        lengths=st.lists(st.integers(0, 6), max_size=8),
        backward=st.booleans(),
    )
    def test_previous_row_is_the_same_sequence_one_step_earlier(self, lengths, backward):
        """`prev` holds, for each packed row after step 0's, the row of the
        same sequence at the step before; `steps` is the (offset, size)
        schedule. A sequence's representation from `encode` is, bit for
        bit, its state at `row(n - 1, seq)`, or zero when it is empty."""
        layout = _layout(backward, *lengths)
        first = layout.sizes[0] if layout.sizes else 0
        assert len(layout.prev) == layout.n_rows - first
        assert layout.steps == list(zip(layout.offsets.tolist(), layout.sizes))
        for seq, n in enumerate(lengths):
            for step in range(1, n):
                row = layout.row(step, seq)
                assert layout.prev[row - first] == layout.row(step - 1, seq)
        branch = Branch.RIGHT if backward else Branch.LEFT
        enc, _ = make_encoder(branch, "gru", 2, 3, 1, Rng(0))
        inputs = np.arange(1.0, 1.0 + 2 * sum(lengths)).reshape(-1, 2) / 7.0
        reps, cache = enc.encode(inputs, lengths=lengths)
        assert cache.layout is layout and reps.shape == (len(lengths), 3)
        for seq, n in enumerate(lengths):
            if n:
                assert np.array_equal(reps[seq], cache.outputs[layout.row(n - 1, seq)])
                assert reps[seq].any()
            else:
                assert not reps[seq].any()


    @pytest.mark.parametrize("lengths", [[3, -1], [2.7, 0.9], [1, "2"]])
    def test_encode_rejects_lengths_that_are_not_counts(self, lengths):
        """A negative or non-integer length is an error, not a zero
        representation or a truncated count."""
        enc, _ = make_encoder(Branch.LEFT, "gru", 2, 3, 1, Rng(0))
        with pytest.raises(ConfigurationError, match="lengths must be integers >= 0"):
            enc.encode(np.zeros((3, 2)), lengths=lengths)

    @pytest.mark.parametrize("other", [3.0, True])
    def test_a_cached_layout_is_not_served_for_lengths_of_another_type(self, other):
        """(3.0,) and (True,) hash and compare as (3,) and (1,) do, so a cache
        keyed on the values alone would serve them a checked layout."""
        with pytest.raises(ConfigurationError, match="lengths must be integers >= 0"):
            _layout(False, other)
        _layout(False, int(other))  # now cached
        with pytest.raises(ConfigurationError, match="lengths must be integers >= 0"):
            _layout(False, other)


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
        enc, _ = make_encoder(branch, kind, d_in, hidden, layers, rng)
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


class TestKeptActivations:
    @pytest.mark.parametrize("kind", ["gru", "lstm"])
    @pytest.mark.parametrize("layers", [1, 2])
    def test_the_cache_holds_the_forward_activations(self, kind, layers, monkeypatch):
        """Each step turns its rows of the input projection into its
        activations in place, so the cache holds, at every step, what the
        public step returns from the same input and previous state (within
        the hoisting tolerance of 1e-12), in C-contiguous gate blocks that
        `backprop` reads without calling a step function."""
        from fbrnn import model

        d_in, hidden, T = 320, 32, 9
        rng = Rng(41)
        enc, _ = make_encoder(Branch.LEFT, kind, d_in, hidden, layers, rng)
        for layer in enc.layers:
            layer.b.values[:] = rng.uniform(-1, 1, layer.b.size)
        inputs = np.asarray(rng.uniform(-1, 1, T * d_in)).reshape(T, d_in)
        _, cache = enc.encode(inputs)
        assert len(cache.activations) == layers
        for k, (layer, blocks) in enumerate(zip(enc.layers, cache.activations)):
            assert all(block.flags.c_contiguous for block in blocks)
            xs = inputs if k == 0 else cache.states[k - 1]
            h = c = np.zeros(hidden)
            for t in range(T):
                if kind == "gru":
                    _, acts = gru_step(xs[t], h, layer)
                    kept = (blocks[0][t, :hidden], blocks[0][t, hidden:], blocks[1][t])
                else:
                    _, _, acts = lstm_step(xs[t], h, c, layer)
                    kept = (*np.split(blocks[0][t], 4), np.tanh(cache.cells[k][t]))
                    c = cache.cells[k][t]
                for a, b in zip(acts, kept, strict=True):
                    assert np.max(np.abs(a - b)) <= 1e-12, (k, t)
                h = cache.states[k][t]

        calls = []

        def counted(step):
            return lambda *args, **kw: calls.append(step) or step(*args, **kw)

        monkeypatch.setattr(model, "_gru_step", counted(model._gru_step))
        monkeypatch.setattr(model, "_lstm_step", counted(model._lstm_step))
        enc.backprop(np.asarray(rng.uniform(-1, 1, T * hidden)).reshape(T, hidden), cache)
        assert calls == []
        enc.encode(inputs)
        assert len(calls) == T * layers  # the counter sees the forward's steps

    @pytest.mark.parametrize("kind", ["gru", "lstm"])
    @pytest.mark.parametrize("with_index", [False, True])
    def test_encode_never_writes_to_its_input(self, kind, with_index):
        """The steps work in place on arrays `encode` made, never on the
        caller's: a read-only input encodes, and keeps its values."""
        enc, _ = make_encoder(Branch.RIGHT, kind, 5, 4, 2, Rng(8))
        inputs = np.asarray(Rng(9).uniform(-1, 1, 4 * 5)).reshape(4, 5)
        inputs.flags.writeable = False
        before = inputs.copy()
        index = np.array([0, 1, 2, 3, 2, 1, 0]) if with_index else None
        lengths = [4, 0, 3] if with_index else [1, 3]
        rep, _ = enc.encode(inputs, lengths=lengths, index=index)
        assert rep.any()
        assert np.array_equal(inputs, before)

    @pytest.mark.parametrize("rows", [(), (3,)])
    def test_public_steps_never_write_to_their_arguments(self, rows):
        """`gru_step` and `lstm_step` take read-only inputs and states, one
        vector or n rows, and leave them unchanged."""
        rng = Rng(10)
        args = [np.asarray(rng.uniform(-1, 1, (*rows, n))) for n in (5, 4, 4)]
        for a in args:
            a.flags.writeable = False
        before = [a.copy() for a in args]
        x, h_prev, c_prev = args
        gru_step(x, h_prev, make_layer("gru", 5, 4, rng))
        lstm_step(x, h_prev, c_prev, make_layer("lstm", 5, 4, rng))
        for a, b in zip(args, before):
            assert np.array_equal(a, b)


class TestConstructionIsPinned:
    """`build_model`'s flat value bytes, as SHA-256 of their little-endian
    float64, recorded when each tensor was still drawn into an array of its
    own and then moved into the flat buffer. A reordered draw, or a
    declaration in another order, changes them."""

    WORDS = ["delta", "alpha", "Beta", "gamma", "alpha"]
    LABELS = LabelSet(["Attack", "Meet"])
    PRETRAINED = {"BETA": np.arange(5.0) - 2.5, "gamma": np.full(5, 0.25), "beta": np.ones(5),
                  "zeta": np.zeros(5)}

    @staticmethod
    def digest(model):
        return hashlib.sha256(model.store.values.astype("<f8").tobytes()).hexdigest()

    @pytest.mark.parametrize("pretrained, expected", [
        (False, "9059da912bf1138eea3dac6705183601f5d79c1b81941c988b397555bff3a4ce"),
        (True, "36c924592da78e1f201541d63bcef62df417af1508a0bee48d09242bc20f86ba"),
    ], ids=["drawn", "pretrained"])
    def test_two_layer_lstm_with_a_deep_head(self, pretrained, expected):
        cfg = ModelConfig(cell="lstm", hidden_size=3, layers=2, word_dim=5, branch_dim=2,
                          head_hidden=(4, 2))
        model = build_model(cfg, self.WORDS, self.LABELS, Rng(11),
                            self.PRETRAINED if pretrained else None)
        assert model.store.values.size == 738
        assert self.digest(model) == expected

    def test_gru_without_branch_embeddings(self):
        cfg = ModelConfig(hidden_size=4, word_dim=6, use_branch=False)
        model = build_model(cfg, self.WORDS, self.LABELS, Rng(12))
        assert model.store.values.size == 621
        assert self.digest(model) == (
            "9722f3dc3fce7605a1f75a750ab22b1e88c7999fd4802284d3a3a3d96b173927"
        )


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
        probs = np.full((2, 34), 1 / 34)
        losses, _ = softmax_nll(probs, [7, 0])
        assert losses == pytest.approx([math.log(34.0)] * 2, abs=1e-12)

    def test_loss_confident_is_zero(self):
        probs = np.zeros((1, 5))
        probs[0, 2] = 1.0
        losses, d_logits = softmax_nll(probs, [2])
        assert losses == [0.0]
        assert not d_logits.any()

    def test_loss_clamped_at_zero_probability(self):
        probs = np.zeros((2, 3))
        probs[:, 0] = 1.0
        losses, _ = softmax_nll(probs, [2, 0])
        assert losses == [pytest.approx(-math.log(1e-12)), 0.0]

    def test_sigmoid_bce_all_half(self):
        probs = np.full((2, 38), 0.5)
        losses, _ = sigmoid_bce(probs, np.eye(2, 38))
        assert losses == pytest.approx([38 * math.log(2.0)] * 2, rel=1e-12)

    def test_softmax_probs_sum_to_one(self):
        labels = LabelSet(["A", "B", "C"])
        cfg = ModelConfig(hidden_size=3, word_dim=4, branch_dim=2)
        model = build_model(cfg, ["u", "v", "w"], labels, Rng(5))
        for words in ((("u",), ("v",), ("w",)), ((), ("u", "v"), ()), ((), ("w",), ())):
            probs = model.predict_proba(BranchSplit(*words))
            assert abs(probs.sum() - 1.0) <= 1e-12


def reference_loss(model, probs, types):
    """The loss and logit gradient of one row, as computed one example at a time."""
    if model.cfg.head_mode == "softmax":
        gold = model.labels.class_index(types[0]) if types else LabelSet.NON_EVENT_INDEX
        d_logits = probs.copy()
        d_logits[gold] -= 1.0
        return -math.log(max(float(probs[gold]), 1e-12)), d_logits
    y = np.zeros(len(model.labels.event_types))
    for t in types:
        y[model.labels.type_offset(t)] = 1.0
    p = np.clip(probs, 1e-12, 1.0 - 1e-12)
    return float(-(y * np.log(p) + (1.0 - y) * np.log(1.0 - p)).sum()), probs - y


def reference_decode(model, probs, threshold):
    """The types of one row, as decoded one example at a time."""
    if model.cfg.head_mode == "softmax":
        t = model.labels.type_at(int(np.argmax(probs)))
        return () if t is None else (t,)
    return tuple(t for t, p in zip(model.labels.event_types, probs) if p > threshold)


class TestRowwiseLossAndDecode:
    """`_losses` and `decode` over a block of rows against the one-row
    formulas they replaced, bit for bit."""

    TYPES = tuple(f"T{i}" for i in range(11))  # a row wider than one SIMD register

    @pytest.mark.parametrize("head_mode", ["softmax", "sigmoid"])
    def test_rows_match_the_per_row_reference(self, head_mode):
        cfg = ModelConfig(hidden_size=2, word_dim=3, branch_dim=2, head_mode=head_mode)
        model = build_model(cfg, ["u"], LabelSet(self.TYPES), Rng(0))
        rng = Rng(8)
        n_out = len(self.TYPES) + (head_mode == "softmax")
        # np.log differs from math.log in the last bit on a few values in a
        # thousand on some CPUs: enough rows that a switch to it shows here
        logits = rng.uniform(-4.0, 4.0, 4000 * n_out).reshape(4000, n_out)
        probs = softmax(logits) if head_mode == "softmax" else sigmoid(logits)
        threshold = 0.375
        probs[0] = 0.0
        probs[0, 3] = probs[0, 5] = 0.5  # a tie: the lower class wins
        probs[1, :4] = threshold  # at the threshold: not above it
        probs[2] = 0.0  # the gold probability clamps at 1e-12
        types = [(), ("T2", "T7"), ("T0",), ("T9",), ("T3", "T3")]
        types += [tuple(self.TYPES[k] for k in range(i % 4)) for i in range(len(probs) - 5)]
        losses, d_logits = model._losses(probs, types)
        reference = [reference_loss(model, p, t) for p, t in zip(probs, types)]
        assert losses == [loss for loss, _ in reference]
        assert d_logits.tobytes() == np.array([d for _, d in reference]).tobytes()
        decoded = model.decode(probs, threshold)
        assert decoded == [reference_decode(model, p, threshold) for p in probs]
        assert losses[2] == pytest.approx(-math.log(1e-12))
        if head_mode == "softmax":
            assert decoded[0] == ("T2",)  # class 3 is T2
        else:
            assert not set(decoded[1]) & set(self.TYPES[:4])

    def test_no_rows(self):
        model = build_model(
            ModelConfig(hidden_size=2, word_dim=3, branch_dim=2), ["u"], LabelSet(["A"]), Rng(0)
        )
        losses, d_logits = model._losses(np.empty((0, 2)), [])
        assert losses == [] and d_logits.shape == (0, 2)
        assert model.decode(np.empty((0, 2))) == []


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
        used = set(model.embedder.word.rows(words[:3]))
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
        probs = np.array([[0.1, 0.2, 0.3, 0.4]])  # non-event, A, B, C
        loss, d_logits = model._losses(probs, [("B", "C")])
        first, d_first = model._losses(probs, [("B",)])
        assert loss == first == [-math.log(0.3)]
        assert d_logits.tobytes() == d_first.tobytes()

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
