"""The forward-backward recurrent classifier.

Three separately parameterized recurrent encoders read the left context and
the nugget span left-to-right and the right context right-to-left. One model
pass (`NuggetModel._forward`) serves training and prediction: it gathers
the U distinct input rows of a batch's N tokens of each branch and runs one
recurrence per branch, layer 0 projecting the U rows and each layer above
its N rows (`x W^T + b`) in one product. A candidate reads each
branch's representation at the packed row of its state after its part's
last token. The representations are concatenated, passed through dropout
(applied exactly when the caller passes an Rng) and a small fully
connected stack, and classified by either a softmax over all classes
(non-event included) or independent sigmoids over the event types
(multi-label mode, where predicting nothing encodes non-event).

Gradients are computed analytically: each candidate's slice of the head
gradient enters its encoder at the row it read; per layer, top first, the
encoder reads every step's activations, which the forward's steps left in
place of its input projection, computes once each factor of the step
gradients that dh does not enter, loops back over the steps for the state
gradients only (BPTT), and takes each weight gradient as one product,
layer 0's over U rows after a segment sum; input gradients go to the
embedding rows. Gradients accumulate.

Conventions fixed here:
    GRU   z = sig(Wz x + Uz h + bz); r = sig(Wr x + Ur h + br)
          hc = tanh(Wc x + Uc (r*h) + bc); h' = h + z*(hc-h)
    LSTM  i,f,o = sig(.); g = tanh(.); c' = f*c + i*g; h' = o*tanh(c')
with sig(a) = 0.5 tanh(a/2) + 0.5 (`_projection`); all-zero weights make a
GRU step halve h and an LSTM step give c' = c/2, h' = tanh(c/2)/2, exactly.

Each layer owns three tensors, `<branch>.l<k>.W`, `.U` and `.b`, with the
gates stacked as row blocks of the hidden size in the order above (GRU
z, r, c; LSTM i, f, o, g): one matrix product per gate group.
"""

from __future__ import annotations

import math
import typing
from dataclasses import dataclass, fields
from functools import lru_cache
from itertools import chain
from typing import Sequence

import numpy as np

from .candidates import BranchSplit
from .corpus import LabelSet
from .embeddings import Branch, Embedder, WordTable, UNK
from .errors import ConfigurationError, NumericError
from .fileio import check
from .numerics import (
    GradCheckReport,
    ParamSpec,
    ParamStore,
    ParamTensor,
    Rng,
    dropout_mask,
    grad_check,
    init_uniform_scaled,
    sigmoid,
    softmax,
)

__all__ = [
    "CELL_KINDS",
    "GATE_ORDER",
    "HEAD_MODES",
    "ModelConfig",
    "RecurrentLayer",
    "gru_step",
    "lstm_step",
    "BranchEncoder",
    "Head",
    "NuggetModel",
    "build_model",
    "softmax_nll",
    "sigmoid_bce",
    "tiny_gradcheck",
]

CELL_KINDS = ("gru", "lstm")
HEAD_MODES = ("softmax", "sigmoid")

_LOG_CLAMP = 1e-12
_HALF = np.array(0.5)  # a 0-d array operand skips a float's conversion: ~0.2 us per step op

_type_hints = lru_cache(typing.get_type_hints)


@dataclass(frozen=True)
class ModelConfig:
    """Structural hyperparameters of the classifier."""

    cell: str = "gru"
    hidden_size: int = 32
    layers: int = 1
    word_dim: int = 300
    branch_dim: int = 20
    use_branch: bool = True
    head_mode: str = "softmax"
    head_hidden: tuple[int, ...] | None = None  # None -> one tanh layer, width 3h
    dropout: float = 0.5

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        """Raise ConfigurationError unless every field holds a value of its
        annotated kind (`fileio.check`) in range; every new config runs it."""
        hints = _type_hints(type(self))
        for f in fields(self):
            check(getattr(self, f.name), hints[f.name], f.name, error=ConfigurationError)
        if self.cell not in CELL_KINDS:
            raise ConfigurationError(f"unknown cell kind {self.cell!r}")
        if self.head_mode not in HEAD_MODES:
            raise ConfigurationError(f"unknown head mode {self.head_mode!r}")
        if self.hidden_size < 1 or self.layers < 1 or self.word_dim < 1:
            raise ConfigurationError("hidden_size, layers and word_dim must be >= 1")
        if self.use_branch and self.branch_dim < 1:
            raise ConfigurationError("branch_dim must be >= 1 when branches are on")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigurationError(f"dropout must be a number in [0, 1), got {self.dropout!r}")
        if self.head_hidden is not None and any(w < 1 for w in self.head_hidden):
            raise ConfigurationError("head_hidden widths must be >= 1")

    def to_dict(self) -> dict:
        """Every field; JSON writes `head_hidden`'s tuple as an array."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: dict) -> "ModelConfig":
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ConfigurationError(f"unknown model config keys: {sorted(unknown)}")
        if isinstance(data.get("head_hidden"), list):  # as `to_dict` wrote it
            data = {**data, "head_hidden": tuple(data["head_hidden"])}
        return cls(**data)


# ---------------------------------------------------------------------------
# Cells
# ---------------------------------------------------------------------------


@dataclass
class RecurrentLayer:
    """One cell layer: its gates stacked as row blocks of the hidden size.

    Block order is z, r, c for the GRU and i, f, o, g for the LSTM; with G
    gates, W is (G*h, d_in), U is (G*h, h) and b is (G*h,).
    """

    W: ParamTensor
    U: ParamTensor
    b: ParamTensor


GATE_ORDER = {"gru": "zrc", "lstm": "ifog"}  # row blocks of W, U and b


def _layer_specs(prefix: str, kind: str, d_in: int, h: int) -> list[ParamSpec]:
    """The declarations of one layer's `W`, `U` and `b`, in store order."""
    n = len(GATE_ORDER[kind]) * h
    return [ParamSpec(f"{prefix}.W", (n, d_in)), ParamSpec(f"{prefix}.U", (n, h)),
            ParamSpec(f"{prefix}.b", (n,))]


def _build_layer(
    store: ParamStore, prefix: str, kind: str, d_in: int, h: int, rng: Rng | None
) -> RecurrentLayer:
    """The layer `_layer_specs` declared in `store`, drawn into its views."""
    layer = RecurrentLayer(*(store[spec.name] for spec in _layer_specs(prefix, kind, d_in, h)))
    # W_g then U_g, gate by gate: the values per-gate tensors would draw.
    for rows in range(0, layer.b.size, h):
        init_uniform_scaled(layer.W.values[rows : rows + h], rng)
        init_uniform_scaled(layer.U.values[rows : rows + h], rng)
    return layer


def _step_inputs(step: str, x: np.ndarray, h_prev: np.ndarray, p: RecurrentLayer) -> tuple:
    """A public step's `_projection` blocks and `_recurrence`, its shapes checked."""
    if (
        x.shape[-1] != p.W.shape[1]
        or h_prev.shape[-1] != p.U.shape[1]
        or x.shape[:-1] != h_prev.shape[:-1]
    ):
        raise ConfigurationError(
            f"{step} shape mismatch: x {x.shape}, h {h_prev.shape}, W {p.W.shape}"
        )
    return _projection(x, p), _recurrence(p)


def gru_step(
    x: np.ndarray, h_prev: np.ndarray, p: RecurrentLayer
) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """One step for one input vector, or for n rows at once: x (n, d_in),
    h_prev (n, h). Returns the new state and the step's activations
    (z, r, candidate). Every product is `rows @ M.T`, which for one row
    gives the bits of `M @ vector`. The input projection comes first, with
    the bias: `(x W^T + b) + h U^T`."""
    (zr, hc), U_t = _step_inputs("gru_step", x, h_prev, p)
    return _gru_step(zr, hc, h_prev, *U_t), (*np.split(zr, 2, axis=-1), hc)


def _projection(x: np.ndarray, p: RecurrentLayer, rows=...) -> list[np.ndarray]:
    """`x W^T + b` at `rows` of x (all by default), the sigmoid gates'
    columns (all but the last h) halved (exact): a cell takes such a gate
    as sig(a) = 0.5 tanh(a/2) + 0.5. Returned as the C-contiguous gate
    blocks a step turns into its activations in place: z|r and c for the
    GRU, i|f|o|g for the LSTM (numpy's SIMD tanh skips strided views)."""
    wx = x @ p.W.values.T
    wx += p.b.values
    n, h = p.U.shape
    wx[..., : n - h] *= 0.5
    blocks = [wx] if n == 4 * h else [wx[..., : 2 * h], wx[..., 2 * h :]]
    if rows is ...:
        return [np.ascontiguousarray(block) for block in blocks]
    return [block.take(rows, axis=0) for block in blocks]


def _recurrence(p: RecurrentLayer) -> list[np.ndarray]:
    """U^T, (h, G*h), its sigmoid gates' columns halved as in `_projection`
    (U's leading rows, contiguous), copied into C order (BLAS sums an F-ordered
    operand in another order), as views of `_projection`'s blocks of columns."""
    n, h = p.U.shape
    U = p.U.values.copy()
    U[:-h] *= 0.5
    U_t = U.T.copy()
    return [U_t] if n == 4 * h else [U_t[:, : 2 * h], U_t[:, 2 * h :]]


def _gru_step(
    zr: np.ndarray, hc: np.ndarray, h_prev: np.ndarray, U_zr: np.ndarray, U_c: np.ndarray,
    out=None,
) -> np.ndarray:
    """The new state of a step given its rows of `_projection`'s blocks,
    which become its activations z|r and hc in place, and `_recurrence`'s;
    written to `out` if given."""
    h = h_prev.shape[-1]
    zr += h_prev @ U_zr
    np.tanh(zr, out=zr)
    zr *= _HALF
    zr += _HALF
    hc += (zr[..., h:] * h_prev) @ U_c
    np.tanh(hc, out=hc)
    out = np.multiply(np.subtract(hc, h_prev, out=out), zr[..., :h], out=out)  # h + z (hc - h)
    out += h_prev
    return out


def lstm_step(
    x: np.ndarray, h_prev: np.ndarray, c_prev: np.ndarray, p: RecurrentLayer
) -> tuple[np.ndarray, np.ndarray, tuple[np.ndarray, ...]]:
    """One step for one vector or for n rows, as `gru_step`: activations i, f, o, g, tanh c'."""
    (gates,), U_t = _step_inputs("lstm_step", x, h_prev, p)
    h_new, c_new = _lstm_step(gates, h_prev, c_prev, *U_t)
    return h_new, c_new, (*np.split(gates, 4, axis=-1), np.tanh(c_new))


def _lstm_step(
    gates: np.ndarray, h_prev: np.ndarray, c_prev: np.ndarray, U_t: np.ndarray,
    out=None, c_out=None,
) -> tuple[np.ndarray, np.ndarray]:
    """The new state and cell of a step given its rows of `_projection`'s
    block, which becomes its activations i|f|o|g in place, and
    `_recurrence`; written to `out`, `c_out` if given."""
    h = h_prev.shape[-1]
    gates += h_prev @ U_t
    np.tanh(gates, out=gates)
    ifo = gates[..., : 3 * h]
    ifo *= _HALF
    ifo += _HALF
    i, f, o, g = (gates[..., k * h : (k + 1) * h] for k in range(4))
    c_new = np.add(f * c_prev, i * g, out=c_out)
    return np.multiply(o, np.tanh(c_new), out=out), c_new


# ---------------------------------------------------------------------------
# Branch encoders
# ---------------------------------------------------------------------------


@dataclass
class PackedLayout:
    """Where the steps of a batch of sequences sit in packed, step-major rows.

    The sequences are ordered by length, descending, ties in batch order, so
    the rows still running at step t are the first sizes[t] of that order:
    step t owns packed rows offsets[t] : offsets[t] + sizes[t]. An empty
    sequence is never running.
    """

    rank: np.ndarray  # position of each batch sequence in that order
    sizes: list[int]  # sequences running at each step
    offsets: np.ndarray  # first packed row of each step
    steps: list[tuple[int, int]]  # (offset, size) of each step
    rows: np.ndarray  # input row of each packed row
    prev: np.ndarray  # packed row of the step before, for each row after step 0's
    n_rows: int  # packed rows: the total length
    nonempty: np.ndarray  # batch positions of the non-empty sequences
    last: np.ndarray  # packed row of each one's last step

    def row(self, step: np.ndarray, seq: np.ndarray) -> np.ndarray:
        """Packed row of step `step` of the sequence at batch position
        `seq`, elementwise; the sequence must be running at that step."""
        return self.offsets[step] + self.rank[seq]


@lru_cache(maxsize=64, typed=True)  # one sentence's small batches repeat; a minibatch's rarely do
def _layout(backward: bool, *lengths: int) -> PackedLayout:
    """Layout of sequences of these lengths, inputs stacked in batch order, each in
    token order (a backward encoder reads each from its last token). Never mutated;
    shared between calls with the same lengths of the same types (3.0 is refused after 3)."""
    lengths = np.asarray(lengths)
    if (lengths.size and lengths.dtype.kind not in "iu") or (lengths < 0).any():
        raise ConfigurationError(f"encode: lengths must be integers >= 0, got {lengths.tolist()}")
    lengths = lengths.astype(np.intp)
    order = np.argsort(-lengths, kind="stable")
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    by_length = lengths[order]
    T = int(by_length[0]) if len(by_length) else 0
    running = by_length > np.arange(T)[:, None]  # (T, B)
    sizes = running.sum(axis=1)
    offsets = np.concatenate(([0], np.cumsum(sizes)[:-1])).astype(np.intp)
    t, j = np.nonzero(running)  # packed rows, step-major
    starts = (np.cumsum(lengths) - lengths)[order]
    rows = starts[j] + (by_length[j] - 1 - t if backward else t)
    prev = (offsets[t - 1] + j)[t > 0]
    steps = list(zip(offsets.tolist(), sizes.tolist()))
    nonempty = np.flatnonzero(lengths)
    last = offsets[lengths[nonempty] - 1] + rank[nonempty]
    return PackedLayout(
        rank, sizes.tolist(), offsets, steps, rows, prev, len(rows), nonempty, last
    )


@dataclass
class EncoderCache:
    """Per layer, arrays in packed rows: what `backprop` reads. The
    activations are the memory of each layer's `_projection` blocks, which
    the steps turned into their activations in place."""

    layout: PackedLayout
    inputs: np.ndarray  # layer 0's distinct input rows, (U, d_in); layer k's are states[k - 1]
    reads: np.ndarray  # the row of `inputs` each packed row reads, (N,)
    activations: list[list[np.ndarray]]  # each layer's gate blocks: GRU z|r, hc; LSTM i|f|o|g
    states: list[np.ndarray]  # each layer's state after each step, (N, h)
    cells: list[np.ndarray]  # each LSTM layer's cell after each step; none for a GRU

    @property
    def outputs(self) -> np.ndarray:
        """The top layer's state after each step, (N, h)."""
        return self.states[-1]


class BranchEncoder:
    """One stacked recurrent encoder with a fixed reading direction.

    LEFT and NUGGET branches read forward; the RIGHT branch reads backward
    (its inputs are reversed before encoding). The representation is the
    final hidden state of the top layer; an empty branch yields the zero
    vector, adds zero to its gradients and marks no row reached.

    A batch of sequences runs as one recurrence: each layer first projects
    its input rows in one product (layer 0 each distinct row once), then
    each step is one product of the states of the sequences still running
    (see PackedLayout), which turns its rows of the projection into its
    activations in place, so the layer's whole arrays (see EncoderCache)
    hold every step's activations for `backprop`. One sequence is the
    batch of one.
    """

    def __init__(
        self, branch: Branch, kind: str, hidden: int, layers: list, backward: bool
    ) -> None:
        self.branch = branch
        self.kind = kind
        self.hidden = hidden
        self.layers = layers
        self.backward = backward

    @staticmethod
    def _layer_args(branch: Branch, d_in: int, hidden: int, n_layers: int):
        """(prefix, d_in) of each layer."""
        prefix = branch.name.lower()
        return [(f"{prefix}.l{i}", d_in if i == 0 else hidden) for i in range(n_layers)]

    @classmethod
    def specs(
        cls, branch: Branch, kind: str, d_in: int, hidden: int, n_layers: int
    ) -> list[ParamSpec]:
        """The declarations of the encoder's tensors, layer by layer."""
        return [spec for prefix, d in cls._layer_args(branch, d_in, hidden, n_layers)
                for spec in _layer_specs(prefix, kind, d, hidden)]

    @classmethod
    def build(
        cls,
        branch: Branch,
        kind: str,
        d_in: int,
        hidden: int,
        n_layers: int,
        store: ParamStore,
        rng: Rng | None,
    ) -> "BranchEncoder":
        """The encoder whose tensors `specs` declared in `store`, drawn layer by layer."""
        layers = [
            _build_layer(store, prefix, kind, d, hidden, rng)
            for prefix, d in cls._layer_args(branch, d_in, hidden, n_layers)
        ]
        return cls(branch, kind, hidden, layers, backward=(branch is Branch.RIGHT))

    def encode(
        self,
        vectors: np.ndarray | Sequence[np.ndarray],
        *,
        lengths: Sequence[int] | None = None,
        index: np.ndarray | None = None,
    ) -> tuple[np.ndarray, EncoderCache]:
        """Encode a (T, d_in) input matrix, or any sequence of T vectors, in
        the branch's token order (with `index`, token t reads row `index[t]`
        of U distinct rows, each read, which layer 0 projects once): returns
        the (hidden,) representation. With `lengths`, the tokens are a batch
        of sequences in batch order: returns (B, hidden), one per sequence.

        The cache keeps the top layer's state after every step, so one pass
        also yields the representation of each prefix of each sequence's
        processing order (each suffix of its tokens, for the RIGHT branch):
        `cache.outputs[cache.layout.row(t, seq)]`, which for one sequence
        is `cache.outputs[t]`."""
        inputs = np.asarray(vectors, dtype=np.float64)
        index = np.arange(len(inputs)) if index is None else np.asarray(index)
        layout = _layout(self.backward, *([len(index)] if lengths is None else lengths))
        if layout.n_rows != len(index):
            raise ConfigurationError(
                f"encode: lengths sum to {layout.n_rows}, inputs have {len(index)} rows"
            )
        d_in = self.layers[0].W.shape[1]
        if not len(inputs):
            inputs = inputs.reshape(0, d_in)  # an empty list has shape (0,)
        if inputs.shape[1] != d_in:
            raise ConfigurationError(
                f"encode: inputs {inputs.shape}, layer 0 W {self.layers[0].W.shape}"
            )
        reads = index[layout.rows]
        x, activations, states, cells = inputs, [], [], []
        for k, layer in enumerate(self.layers):
            # every step's input projection, with the bias, as one product
            acts = _projection(x, layer, ... if k else reads)
            x = np.empty((layout.n_rows, self.hidden))
            h = c = np.zeros((max(layout.sizes, default=0), self.hidden))  # before step 0
            recurrent = _recurrence(layer)  # U^T's gate blocks
            if self.kind == "gru":  # each step writes its rows of x (and of the cells)
                (zr, hc), (U_zr, U_c) = acts, recurrent
                for o, n in layout.steps:
                    t = slice(o, o + n)
                    h = _gru_step(zr[t], hc[t], h[:n], U_zr, U_c, x[t])
            else:
                (gates,), (U_t,), cell = acts, recurrent, np.empty_like(x)
                for o, n in layout.steps:
                    t = slice(o, o + n)
                    h, c = _lstm_step(gates[t], h[:n], c[:n], U_t, x[t], cell[t])
                cells.append(cell)
            activations.append(acts)
            states.append(x)
        reps = x[layout.last]
        if len(reps) < len(layout.rank):  # an empty sequence's representation is zero
            reps = np.zeros((len(layout.rank), self.hidden))
            reps[layout.nonempty] = x[layout.last]
        cache = EncoderCache(layout, inputs, reads, activations, states, cells)
        return (reps[0] if lengths is None else reps), cache

    def backprop(self, d_outputs: np.ndarray, cache: EncoderCache) -> np.ndarray:
        """BPTT from the gradient of `cache.outputs`, (n_rows, hidden), which
        may enter at any packed row; returns the gradients of `encode`'s U
        input rows, (U, d_in), each summed over the tokens that read it."""
        if d_outputs.shape != cache.outputs.shape:
            raise ConfigurationError(
                f"backprop: d_outputs {d_outputs.shape}, outputs {cache.outputs.shape}"
            )
        layout = cache.layout
        order = cache.reads.argsort(kind="stable")  # one segment per input row read
        ordered = cache.reads[order]
        firsts = np.flatnonzero(np.concatenate(([-1], ordered))[:-1] != ordered)
        if len(firsts) != len(cache.inputs):
            raise ConfigurationError(
                f"backprop: the tokens read {len(firsts)} of {len(cache.inputs)} input rows; "
                "with `index`, `encode` needs every input row read by some token"
            )
        h = self.hidden
        zeros = np.zeros((max(layout.sizes, default=0), h))  # the state before step 0
        d_states = d_outputs
        for k in reversed(range(len(self.layers))):
            p, acts, U = self.layers[k], cache.activations[k], self.layers[k].U.values
            # every row's previous state, and from it and the forward's
            # activations every factor of the step gradients that is not dh's
            h_prev = np.concatenate((zeros, cache.states[k][layout.prev]))
            da = np.empty((layout.n_rows, len(U)))  # pre-activation gradients, gate blocks as in W
            if self.kind == "gru":
                z, r, hc = acts[0][:, :h], acts[0][:, h:], acts[1]
                # da_z = dh d_z, da_r = drh d_r, da_c = dh d_c
                keep, d_r, d_c = 1.0 - z, h_prev * r * (1.0 - r), z * (1.0 - hc * hc)
                d_z, U_zr, U_c = (hc - h_prev) * z * keep, U[: 2 * h], U[2 * h :]
            else:
                i, f, o, g = np.split(acts[0], 4, axis=1)
                tc = np.tanh(cache.cells[k])
                c_prev = np.concatenate((zeros, cache.cells[k][layout.prev]))
                dc_dh = o * (1.0 - tc * tc)  # dc = dc_next + dh dc_dh
                # da_i, da_f and da_g are dc times their block, da_o is dh times its
                d_ifo = g * i * (1.0 - i), c_prev * f * (1.0 - f), tc * o * (1.0 - o)
                d_gates = np.stack((*d_ifo, i * (1.0 - g * g)), axis=1)  # (N, 4, h), as da_gates
                da_gates = da.reshape(-1, 4, h)
            # dh_next and dc_next become each step's dh and dc in place; tmp is scratch
            dh_next, dc_next, tmp = np.zeros((3, *zeros.shape))
            for start, n in reversed(layout.steps):  # the state gradients run back through time
                t, dh, dc, tmp_t = slice(start, start + n), dh_next[:n], dc_next[:n], tmp[:n]
                dh += d_states[t]
                if self.kind == "gru":
                    drh = np.matmul(np.multiply(dh, d_c[t], out=da[t, 2 * h :]), U_c, out=tmp_t)
                    np.multiply(dh, d_z[t], out=da[t, :h])
                    np.multiply(drh, d_r[t], out=da[t, h : 2 * h])
                    dh *= keep[t]  # dh_next = dh (1 - z) + drh r + da_zr U_zr
                    dh += np.multiply(drh, r[t], out=tmp_t)
                    dh += np.matmul(da[t, : 2 * h], U_zr, out=tmp_t)
                else:
                    dc += np.multiply(dh, dc_dh[t], out=tmp_t)
                    np.multiply(d_gates[t], dc[:, None], out=da_gates[t])
                    np.multiply(dh, d_gates[t, 2], out=da_gates[t, 2])
                    np.matmul(da[t], U, out=dh)
                    dc *= f[t]
            # one product per gradient; np.dot, not @: a BLAS product even when N is 1
            if self.kind == "gru":
                p.U.grad[: 2 * h] += np.dot(da[:, : 2 * h].T, h_prev)
                p.U.grad[2 * h :] += np.dot(da[:, 2 * h :].T, r * h_prev)
            else:
                p.U.grad += np.dot(da.T, h_prev)
            p.b.grad += da.sum(axis=0)
            if k:
                p.W.grad += np.dot(da.T, cache.states[k - 1])
                d_states = da @ p.W.values
        d_rows = np.add.reduceat(da[order], firsts, axis=0)  # p and da are layer 0's
        p.W.grad += np.dot(d_rows.T, cache.inputs)
        return d_rows @ p.W.values


# ---------------------------------------------------------------------------
# Classification head and losses
# ---------------------------------------------------------------------------


@dataclass
class HeadCache:
    mask: np.ndarray | None
    acts: list[np.ndarray]  # acts[0] = input after dropout, then each tanh output


class Head:
    """Dropout on the concatenated representation, then one dense stack:
    `layers` holds (W, b) of each tanh layer in order, then the output
    layer last.

    Works on (B, 3h) rows, one per example; `forward` also takes one
    (3h,) vector.
    """

    def __init__(
        self, layers: list[tuple[ParamTensor, ParamTensor]], head_mode: str, dropout: float
    ) -> None:
        self.layers = layers
        self.head_mode = head_mode
        self.dropout = dropout

    @staticmethod
    def specs(cfg: ModelConfig, labels: LabelSet) -> list[ParamSpec]:
        """The declarations of each layer's `W` and `b`, in order."""
        hidden = (3 * cfg.hidden_size,) if cfg.head_hidden is None else cfg.head_hidden
        n_out = labels.n_classes if cfg.head_mode == "softmax" else len(labels.event_types)
        specs = []
        d = 3 * cfg.hidden_size
        for i, w in enumerate((*hidden, n_out)):
            name = "head.out" if i == len(hidden) else f"head.l{i}"
            specs += [ParamSpec(f"{name}.W", (w, d)), ParamSpec(f"{name}.b", (w,))]
            d = w
        return specs

    @classmethod
    def build(
        cls, cfg: ModelConfig, labels: LabelSet, store: ParamStore, rng: Rng | None
    ) -> "Head":
        """The head whose tensors `specs` declared in `store`, each `W` drawn in order."""
        tensors = [store[spec.name] for spec in cls.specs(cfg, labels)]
        layers = list(zip(tensors[::2], tensors[1::2]))
        for W, _ in layers:
            init_uniform_scaled(W.values, rng)
        return cls(layers, cfg.head_mode, cfg.dropout)

    def forward(
        self, rep: np.ndarray, rng: Rng | None = None
    ) -> tuple[np.ndarray, HeadCache]:
        """Dropout draws its mask from `rng`; without one it is the identity.
        The mask of a batch is one draw of B * 3h values: row by row, the
        masks B single examples would draw in turn."""
        if rng is not None and self.dropout > 0.0:
            mask = dropout_mask(rep.size, self.dropout, rng).reshape(rep.shape)
            x = rep * mask
        else:
            mask = None
            x = rep
        acts = [x]
        for W, b in self.layers[:-1]:
            x = x @ W.values.T
            acts.append(np.tanh(np.add(x, b.values, out=x), out=x))
        W, b = self.layers[-1]
        logits = x @ W.values.T
        logits += b.values
        probs = softmax(logits) if self.head_mode == "softmax" else sigmoid(logits)
        return probs, HeadCache(mask, acts)

    def backprop(self, d_logits: np.ndarray, cache: HeadCache) -> np.ndarray:
        """Accumulates head grads, summed over the rows; returns the
        gradient w.r.t. the (pre-dropout) concatenated representation."""
        da = d_logits
        for k in reversed(range(len(self.layers))):
            W, b = self.layers[k]
            W.grad += np.dot(da.T, cache.acts[k])
            b.grad += da.sum(axis=0)
            dx = da @ W.values
            if k > 0:  # through the tanh whose output is acts[k]
                da = dx * (1.0 - cache.acts[k] * cache.acts[k])
        if cache.mask is not None:
            dx = dx * cache.mask
        return dx


def softmax_nll(probs: np.ndarray, gold: Sequence[int]) -> tuple[list[float], np.ndarray]:
    """Each row's negative log likelihood of its gold class, probs (B, K)
    and gold (B,), and the gradient of their sum w.r.t. the logits. Each
    loss is the `math.log` of one clamped probability."""
    gold_at = np.arange(len(probs)), np.asarray(gold, dtype=np.intp)
    losses = [-math.log(max(p, _LOG_CLAMP)) for p in probs[gold_at].tolist()]
    d_logits = probs.copy()
    d_logits[gold_at] -= 1.0
    return losses, d_logits


def sigmoid_bce(probs: np.ndarray, targets: np.ndarray) -> tuple[list[float], np.ndarray]:
    """Each row's binary cross-entropy summed over event types, probs and
    targets (B, K), and the gradient of their sum w.r.t. the logits."""
    p = np.clip(probs, _LOG_CLAMP, 1.0 - _LOG_CLAMP)
    losses = -(targets * np.log(p) + (1.0 - targets) * np.log(1.0 - p)).sum(axis=1)
    return losses.tolist(), probs - targets


# ---------------------------------------------------------------------------
# Full model
# ---------------------------------------------------------------------------


@dataclass
class ModelCache:
    rows: dict[Branch, np.ndarray]  # distinct word rows of each branch's inputs
    enc: dict[Branch, EncoderCache]
    reads: dict[Branch, tuple[np.ndarray, np.ndarray]]  # (candidates, packed rows they read)
    head: HeadCache


class NuggetModel:
    """Embeddings + three branch encoders + classification head."""

    def __init__(
        self,
        cfg: ModelConfig,
        labels: LabelSet,
        store: ParamStore,
        embedder: Embedder,
        encoders: dict[Branch, BranchEncoder],
        head: Head,
    ) -> None:
        self.cfg = cfg
        self.labels = labels
        self.store = store
        self.embedder = embedder
        self.encoders = encoders
        self.head = head

    # -- forward / backward -------------------------------------------

    def forward(
        self, splits: Sequence[BranchSplit], rng: Rng | None = None
    ) -> tuple[np.ndarray, ModelCache]:
        """Class probabilities of a minibatch of splits, (B, K), and the
        cache `forward_backward` reads: `_forward` with each split a group
        of one. Dropout applies exactly when `rng` is given."""
        return self._forward([[split] for split in splits], rng, keep=True)

    def forward_backward(
        self,
        splits: Sequence[BranchSplit],
        types: Sequence[tuple[str, ...]],
        rng: Rng | None = None,
    ) -> list[float]:
        """The per-example losses of a minibatch of splits with their gold
        types; accumulates the gradient of their sum into the store.

        A non-finite loss raises NumericError before any gradient is
        accumulated; its `position` is the first such example's index."""
        if len(splits) != len(types):
            raise ConfigurationError(f"{len(splits)} splits but {len(types)} type tuples")
        probs, cache = self.forward(splits, rng)
        losses, d_logits = self._losses(probs, types)
        for k, loss in enumerate(losses):
            if not math.isfinite(loss):
                raise NumericError(f"non-finite loss {loss!r}", position=k)
        d_concat = self.head.backprop(d_logits, cache.head)
        h = self.cfg.hidden_size
        for branch in Branch:
            candidate, row = cache.reads[branch]
            # every split is its own group, so no two candidates read one row
            d_outputs = np.zeros_like(cache.enc[branch].outputs)
            d_outputs[row] = d_concat[candidate, branch * h : (branch + 1) * h]
            d_inputs = self.encoders[branch].backprop(d_outputs, cache.enc[branch])
            self.embedder.accumulate_grad(cache.rows[branch], branch, d_inputs)
        return losses

    # -- inference ------------------------------------------------------

    def predict_proba(self, split: BranchSplit) -> np.ndarray:
        return self.forward([split])[0][0]

    def batch_proba(self, groups: Sequence[Sequence[BranchSplit]]) -> np.ndarray:
        """Class probabilities of every split, (C, K) in the order given,
        for groups of candidates, each group's splits partitioning the same
        sentence; two groups may hold the same sentence. See `_forward`.
        Only the summation order of the matrix products differs from
        `predict_proba(split)` (measured within 1e-15)."""
        return self._forward(groups)[0]

    def _forward(
        self, groups: Sequence[Sequence[BranchSplit]], rng: Rng | None = None, keep: bool = False
    ) -> tuple[np.ndarray, ModelCache]:
        """The one model pass: the probabilities of `batch_proba`, and the
        pass's cache.

        Each candidate's span is one row of `spans`: (group, len(left),
        len(nugget), len(right)). NUGGET reads every candidate's span, LEFT
        each group's tokens before its last candidate start, RIGHT those
        after its first candidate end. A candidate reads each non-empty part's
        representation at the packed row of its state after step len(part) - 1
        of its sequence (its group for LEFT and RIGHT; for NUGGET, `encode`'s
        representation); branch `b`'s is block `b` of each candidate's row. With
        `keep` the cache holds what a backward pass needs; without it each encoder
        cache is dropped once read, so a forward-only pass holds one at a time."""
        lefts, nuggets, rights = parts = [], [], []  # word rows of each sequence
        spans = []  # each candidate's span row, flat
        for g, splits in enumerate(filter(None, groups)):
            sentence = self.embedder.word.rows(tokens := splits[0].tokens)  # once per group
            left = right = 0  # the group's LEFT and RIGHT lengths: its rows' maxima
            for split in splits:
                if split.tokens is not tokens and split.tokens != tokens:
                    raise ValueError("batch_proba: one group holds splits of different sentences")
                start, n, after = len(split.left), len(split.nugget), len(split.right)
                spans += g, start, n, after
                nuggets.append(sentence[start : start + n])
                left, right = max(left, start), max(right, after)
            lefts.append(sentence[:left])
            rights.append(sentence[len(sentence) - right :])
        spans = np.array(spans, dtype=np.intp).reshape(-1, 4)
        h = self.cfg.hidden_size
        reps = np.zeros((len(spans), 3 * h))
        rows, encs, reads = {}, {}, {}
        # any order gives the same bits; LEFT first measured more page faults
        for b in (Branch.NUGGET, Branch.LEFT, Branch.RIGHT):
            inputs, word_rows, index = self.embedder.assemble_input(list(chain(*parts[b])), b)
            lengths = list(map(len, parts[b]))
            encoded, enc = self.encoders[b].encode(inputs, lengths=lengths, index=index)
            if b is Branch.NUGGET:  # each candidate's own sequence: its representation
                candidate, row = enc.layout.nonempty, enc.layout.last
                reps[:, h : 2 * h] = encoded
            else:
                candidate = spans[:, 1 + b].nonzero()[0]
                read = spans[candidate]  # (group, len(left), len(nugget), len(right))
                row = enc.layout.row(read[:, 1 + b] - 1, read[:, 0])
                reps[candidate, b * h : (b + 1) * h] = enc.outputs[row]
            if keep:
                rows[b], encs[b], reads[b] = word_rows, enc, (candidate, row)
            del inputs, word_rows, encoded, enc
        probs, head_cache = self.head.forward(reps, rng)
        return probs, ModelCache(rows, encs, reads, head_cache)

    def predict(self, split: BranchSplit, threshold: float = 0.5) -> tuple[str, ...]:
        """Predicted event types of one split: `decode` of its one row."""
        return self.decode(self.forward([split])[0], threshold)[0]

    def decode(self, probs: np.ndarray, threshold: float = 0.5) -> list[tuple[str, ...]]:
        """Event types of each row of class probabilities, (C, K); an empty
        tuple means non-event. Softmax: each row's argmax class (ties broken
        toward the lowest class index). Sigmoid: every type whose
        probability exceeds `threshold`."""
        if self.cfg.head_mode == "softmax":
            types = [self.labels.type_at(k) for k in probs.argmax(axis=1).tolist()]
            return [() if t is None else (t,) for t in types]
        names = self.labels.event_types
        return [tuple(t for t, a in zip(names, row) if a) for row in (probs > threshold).tolist()]

    def loss(self, split: BranchSplit, types: tuple[str, ...]) -> float:
        """`_losses` of one row, without dropout or touching gradients."""
        return self._losses(self.forward([split])[0], [types])[0][0]

    def _losses(
        self, probs: np.ndarray, types: Sequence[tuple[str, ...]]
    ) -> tuple[list[float], np.ndarray]:
        """Each row's loss against its gold types, probs (B, K), and the
        gradient of their sum w.r.t. the logits, (B, K). Multi-label gold
        trains the softmax head on its first listed type (the head cannot
        express more than one)."""
        if self.cfg.head_mode == "softmax":
            none = LabelSet.NON_EVENT_INDEX
            return softmax_nll(probs, [self.labels.class_index(t[0]) if t else none for t in types])
        targets = np.zeros(probs.shape)
        for k, t in enumerate(types):
            targets[k, [self.labels.type_offset(name) for name in t]] = 1.0
        return sigmoid_bce(probs, targets)


def build_model(
    cfg: ModelConfig,
    vocab_words: Sequence[str],
    labels: LabelSet,
    rng: Rng,
    pretrained: dict[str, np.ndarray] | None = None,
) -> NuggetModel:
    """Assemble a model with a freshly drawn vocabulary from corpus words."""
    ordered = [UNK] + sorted({w.lower() for w in vocab_words} - {UNK})
    return assemble_model(cfg, ordered, labels, rng, pretrained)


def assemble_model(
    cfg: ModelConfig,
    ordered_words: list[str],
    labels: LabelSet,
    rng: Rng | None,
    pretrained: dict[str, np.ndarray] | None = None,
) -> NuggetModel:
    """Assemble a model from an explicit row-ordered word list (UNK first).

    Every tensor is declared first, so the store allocates its flat arrays
    once; then each part draws straight into its views, in store order.
    Without an rng nothing is drawn: the model is zero-filled, and its
    flat arrays touch no page until a value is written.
    """
    d_in = cfg.word_dim + (cfg.branch_dim if cfg.use_branch else 0)
    store = ParamStore([
        WordTable.spec(ordered_words, cfg.word_dim),
        *([ParamSpec("branch_emb", (3, cfg.branch_dim))] if cfg.use_branch else []),
        *(spec for b in Branch
          for spec in BranchEncoder.specs(b, cfg.cell, d_in, cfg.hidden_size, cfg.layers)),
        *Head.specs(cfg, labels),
    ])
    word = WordTable.build(ordered_words, cfg.word_dim, rng, store, pretrained)
    branch = None
    if cfg.use_branch:
        branch = store["branch_emb"]
        init_uniform_scaled(branch.values, rng)
    encoders = {
        b: BranchEncoder.build(b, cfg.cell, d_in, cfg.hidden_size, cfg.layers, store, rng)
        for b in Branch
    }
    head = Head.build(cfg, labels, store, rng)
    return NuggetModel(cfg, labels, store, Embedder(word, branch), encoders, head)


# ---------------------------------------------------------------------------
# Gradient-check harness
# ---------------------------------------------------------------------------

_TINY_SENTENCE = ("officials", "had", "slipped", "past", "the", "checkpoint")
_TINY_TYPES = ("TypeA", "TypeB", "TypeC")


def tiny_gradcheck(
    cell: str = "gru",
    head_mode: str = "softmax",
    use_branch: bool = True,
    seed: int = 0,
    eps: float = 2e-4,
) -> GradCheckReport:
    """Finite-difference check of the full model on a tiny configuration.

    A 6-token sentence, hidden size 4, word dim 5, branch dim 2 and 4
    classes; the loss sums one positive (multi-label in sigmoid mode) and
    one non-event candidate, so every code path contributes gradient.

    The probe step defaults to 2e-4 rather than the checker's generic
    1e-5: the smallest true gradient entries here (forget-gate recurrent
    weights behind a zero initial cell state) are ~1e-8, and with a loss
    of magnitude ~5 a smaller step leaves the central difference dominated
    by float64 cancellation noise rather than by the gradient.
    """
    labels = LabelSet(_TINY_TYPES)
    cfg = ModelConfig(
        cell=cell,
        hidden_size=4,
        word_dim=5,
        branch_dim=2,
        use_branch=use_branch,
        head_mode=head_mode,
        dropout=0.5,  # inactive: the check passes no rng
    )
    model = build_model(cfg, list(_TINY_SENTENCE), labels, Rng(seed))
    positive = BranchSplit(_TINY_SENTENCE[:2], _TINY_SENTENCE[2:4], _TINY_SENTENCE[4:])
    negative = BranchSplit(_TINY_SENTENCE[:1], _TINY_SENTENCE[1:2], _TINY_SENTENCE[2:])
    pos_types = ("TypeA", "TypeC") if head_mode == "sigmoid" else ("TypeB",)

    model.forward_backward([positive], [pos_types])
    model.forward_backward([negative], [()])

    def loss_fn() -> float:
        return model.loss(positive, pos_types) + model.loss(negative, ())

    return grad_check(loss_fn, model.store, eps=eps)
