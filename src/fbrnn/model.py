"""The forward-backward recurrent classifier.

Three separately parameterized recurrent encoders read the left context and
the nugget span left-to-right and the right context right-to-left. One model
pass (`NuggetModel._forward`) serves training and prediction: it gathers a
batch's tokens of each branch as one (N, d) input matrix and runs one
recurrence per branch, each layer projecting all of its input rows
(`x W^T + b`) in one product before its step loop. A candidate reads each
branch's representation at the packed row of its state after its part's
last token. The representations are concatenated, passed through dropout
(applied exactly when the caller passes an Rng) and a small fully
connected stack, and classified by either a softmax over all classes
(non-event included) or independent sigmoids over the event types
(multi-label mode, where predicting nothing encodes non-event).

Gradients are computed analytically: each candidate's slice of the head
gradient enters its encoder at the row it read, the encoder replays the
cached steps in reverse (backpropagation through time, layer by layer for
stacked cells), and each branch's (T, d) input gradient is scattered back
into the word and branch embedding rows. Gradients accumulate; callers
zero the store between optimizer steps.

Conventions fixed here:
    GRU   z = sig(Wz x + Uz h + bz); r = sig(Wr x + Ur h + br)
          hc = tanh(Wc x + Uc (r*h) + bc); h' = (1-z)*h + z*hc
    LSTM  i,f,o = sig(.); g = tanh(.); c' = f*c + i*g; h' = o*tanh(c')
so with all-zero weights a GRU step halves the hidden state and an LSTM
step gives c' = c/2, h' = tanh(c/2)/2.

Each layer owns three tensors, `<branch>.l<k>.W`, `.U` and `.b`, with the
gates stacked as row blocks of the hidden size in the order above (GRU
z, r, c; LSTM i, f, o, g): one matrix product per gate group.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields
from functools import lru_cache
from itertools import chain
from typing import Sequence

import numpy as np

from .candidates import BranchSplit
from .corpus import LabelSet
from .embeddings import Branch, BranchTable, Embedder, WordTable, UNK
from .errors import ConfigurationError, NumericError
from .numerics import (
    GradCheckReport,
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
    "gru_step_backward",
    "lstm_step",
    "lstm_step_backward",
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

    def validate(self) -> None:
        if self.cell not in CELL_KINDS:
            raise ConfigurationError(f"unknown cell kind {self.cell!r}")
        if self.head_mode not in HEAD_MODES:
            raise ConfigurationError(f"unknown head mode {self.head_mode!r}")
        sizes = {n: getattr(self, n) for n in ("hidden_size", "layers", "word_dim", "branch_dim")}
        sizes.update((f"head_hidden[{k}]", w) for k, w in enumerate(self.head_hidden or ()))
        for name, n in sizes.items():
            if isinstance(n, bool) or not isinstance(n, numbers.Integral):
                raise ConfigurationError(
                    f"layer sizes and counts must be integers, got {name} = {n!r}"
                )
        if self.hidden_size < 1 or self.layers < 1 or self.word_dim < 1:
            raise ConfigurationError("hidden_size, layers and word_dim must be >= 1")
        if not isinstance(self.use_branch, bool):
            raise ConfigurationError(f"use_branch must be true or false, got {self.use_branch!r}")
        if self.use_branch and self.branch_dim < 1:
            raise ConfigurationError("branch_dim must be >= 1 when branches are on")
        if (
            isinstance(self.dropout, bool)
            or not isinstance(self.dropout, numbers.Real)
            or not 0.0 <= self.dropout < 1.0
        ):
            raise ConfigurationError(f"dropout must be a number in [0, 1), got {self.dropout!r}")
        if self.head_hidden is not None and any(w < 1 for w in self.head_hidden):
            raise ConfigurationError("head_hidden widths must be >= 1")

    def resolved_head_hidden(self) -> tuple[int, ...]:
        if self.head_hidden is None:
            return (3 * self.hidden_size,)
        return tuple(self.head_hidden)

    def to_dict(self) -> dict:
        d = {f.name: getattr(self, f.name) for f in fields(self)}
        if d["head_hidden"] is not None:
            d["head_hidden"] = list(d["head_hidden"])
        return d

    @classmethod
    def from_dict(cls, data: dict) -> "ModelConfig":
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ConfigurationError(f"unknown model config keys: {sorted(unknown)}")
        data = dict(data)
        if data.get("head_hidden") is not None:
            data["head_hidden"] = tuple(data["head_hidden"])
        cfg = cls(**data)
        cfg.validate()
        return cfg


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


def _build_layer(
    store: ParamStore, prefix: str, kind: str, d_in: int, h: int, rng: Rng | None
) -> RecurrentLayer:
    # W_g then U_g, gate by gate: the values per-gate tensors would draw.
    blocks = [
        (
            init_uniform_scaled((h, d_in), rng),
            init_uniform_scaled((h, h), rng),
        )
        for _ in GATE_ORDER[kind]
    ]
    W, U = (np.concatenate(parts) for parts in zip(*blocks))
    return RecurrentLayer(
        store.create(f"{prefix}.W", W),
        store.create(f"{prefix}.U", U),
        store.create(f"{prefix}.b", np.zeros(len(blocks) * h)),
    )


def _check_shapes(step: str, x: np.ndarray, h_prev: np.ndarray, p: RecurrentLayer) -> None:
    if (
        x.shape[-1] != p.W.shape[1]
        or h_prev.shape[-1] != p.U.shape[1]
        or x.shape[:-1] != h_prev.shape[:-1]
    ):
        raise ConfigurationError(
            f"{step} shape mismatch: x {x.shape}, h {h_prev.shape}, W {p.W.shape}"
        )


@dataclass
class GruStepCache:
    x: np.ndarray
    h_prev: np.ndarray
    zr: np.ndarray  # z and r, stacked
    rh: np.ndarray
    hc: np.ndarray


def gru_step(
    x: np.ndarray, h_prev: np.ndarray, p: RecurrentLayer
) -> tuple[np.ndarray, GruStepCache]:
    """One step for one input vector, or for n rows at once: x (n, d_in),
    h_prev (n, h). Every product is `rows @ M.T`, which for one row gives
    the bits of `M @ vector`. The input projection comes first, with the
    bias: `(x W^T + b) + h U^T`.

    The backward steps take rows. They add each weight gradient as one
    `np.dot(da.T, rows)`: a BLAS product, which for one row gives the bits
    of `np.outer` (`@` would run numpy's slower non-BLAS loop there)."""
    _check_shapes("gru_step", x, h_prev, p)
    return _gru_step(x, x @ p.W.values.T + p.b.values, h_prev, _gru_weights(p))


def _gru_weights(p: RecurrentLayer) -> tuple[np.ndarray, np.ndarray]:
    """What a GRU step multiplies the state by: U_zr^T, U_c^T."""
    h = p.U.shape[1]
    U = p.U.values
    return U[: 2 * h].T, U[2 * h :].T


def _gru_step(
    x: np.ndarray, wx: np.ndarray, h_prev: np.ndarray, weights: tuple[np.ndarray, np.ndarray]
) -> tuple[np.ndarray, GruStepCache]:
    """A step given its input projection `wx = x W^T + b`."""
    U_zr, U_c = weights
    h = h_prev.shape[-1]
    zr = sigmoid(wx[..., : 2 * h] + h_prev @ U_zr)
    z, r = zr[..., :h], zr[..., h:]
    rh = r * h_prev
    hc = np.tanh(wx[..., 2 * h :] + rh @ U_c)
    h_new = (1.0 - z) * h_prev + z * hc
    return h_new, GruStepCache(x, h_prev, zr, rh, hc)


def gru_step_backward(
    dh: np.ndarray, cache: GruStepCache, p: RecurrentLayer
) -> tuple[np.ndarray, np.ndarray]:
    """Accumulates parameter grads, summed over the rows; returns
    (dh_prev, dx)."""
    h = dh.shape[1]
    z, r = cache.zr[:, :h], cache.zr[:, h:]
    U = p.U.values
    da = np.empty((dh.shape[0], 3 * h))  # pre-activation gradients of z, r, c
    da[:, 2 * h :] = dh * z * (1.0 - cache.hc * cache.hc)
    drh = da[:, 2 * h :] @ U[2 * h :]
    da[:, :h] = dh * (cache.hc - cache.h_prev) * z * (1.0 - z)
    da[:, h : 2 * h] = drh * cache.h_prev * r * (1.0 - r)

    p.W.grad += np.dot(da.T, cache.x)
    p.U.grad[: 2 * h] += np.dot(da[:, : 2 * h].T, cache.h_prev)
    p.U.grad[2 * h :] += np.dot(da[:, 2 * h :].T, cache.rh)
    p.b.grad += da.sum(axis=0)
    dh_prev = dh * (1.0 - z) + drh * r + da[:, : 2 * h] @ U[: 2 * h]
    return dh_prev, da @ p.W.values


@dataclass
class LstmStepCache:
    x: np.ndarray
    h_prev: np.ndarray
    c_prev: np.ndarray
    gates: np.ndarray  # i, f, o, g, stacked
    tc: np.ndarray  # tanh(c_new)


def lstm_step(
    x: np.ndarray, h_prev: np.ndarray, c_prev: np.ndarray, p: RecurrentLayer
) -> tuple[np.ndarray, np.ndarray, LstmStepCache]:
    """One step for one vector or for n rows, as `gru_step`."""
    _check_shapes("lstm_step", x, h_prev, p)
    return _lstm_step(x, x @ p.W.values.T + p.b.values, h_prev, c_prev, p.U.values.T)


def _lstm_step(
    x: np.ndarray, wx: np.ndarray, h_prev: np.ndarray, c_prev: np.ndarray, U_t: np.ndarray
) -> tuple[np.ndarray, np.ndarray, LstmStepCache]:
    """A step given its input projection `wx = x W^T + b`."""
    h = h_prev.shape[-1]
    gates = wx + h_prev @ U_t
    gates[..., : 3 * h] = sigmoid(gates[..., : 3 * h])
    np.tanh(gates[..., 3 * h :], out=gates[..., 3 * h :])
    i, f, o, g = (gates[..., k * h : (k + 1) * h] for k in range(4))
    c_new = f * c_prev + i * g
    tc = np.tanh(c_new)
    h_new = o * tc
    return h_new, c_new, LstmStepCache(x, h_prev, c_prev, gates, tc)


def lstm_step_backward(
    dh: np.ndarray, dc_in: np.ndarray, cache: LstmStepCache, p: RecurrentLayer
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Accumulates parameter grads, summed over the rows; returns
    (dh_prev, dc_prev, dx)."""
    h = dh.shape[1]
    s = cache.gates[:, : 3 * h]  # the sigmoid gates i, f, o
    i, f, o, g = s[:, :h], s[:, h : 2 * h], s[:, 2 * h :], cache.gates[:, 3 * h :]
    dc = dc_in + dh * o * (1.0 - cache.tc * cache.tc)
    d_ifo = np.concatenate((dc * g, dc * cache.c_prev, dh * cache.tc), axis=1)
    da = np.concatenate((d_ifo * s * (1.0 - s), dc * i * (1.0 - g * g)), axis=1)

    p.W.grad += np.dot(da.T, cache.x)
    p.U.grad += np.dot(da.T, cache.h_prev)
    p.b.grad += da.sum(axis=0)
    return da @ p.U.values, dc * f, da @ p.W.values


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

    order: np.ndarray  # batch positions, longest sequence first
    rank: np.ndarray  # position of each batch sequence in `order`: its inverse
    sizes: list[int]  # sequences running at each step
    offsets: np.ndarray  # first packed row of each step
    rows: np.ndarray  # input row of each packed row
    last: np.ndarray  # packed row of each non-empty sequence's last step, in `order`
    n_rows: int  # packed rows: the total length

    @classmethod
    def of(cls, lengths: Sequence[int], backward: bool) -> "PackedLayout":
        """Layout of sequences of these lengths, whose inputs are stacked in
        batch order, each in its token order; a backward encoder reads
        each sequence from its last token. Shared between calls with the
        same lengths; never mutated."""
        return _layout(tuple(lengths), backward)

    def row(self, step: np.ndarray, seq: np.ndarray) -> np.ndarray:
        """Packed row of step `step` of the sequence at batch position
        `seq`, elementwise; the sequence must be running at that step."""
        return self.offsets[step] + self.rank[seq]


@lru_cache(maxsize=64)  # one sentence's small batches repeat; a minibatch's rarely do
def _layout(lengths: tuple[int, ...], backward: bool) -> PackedLayout:
    lengths = np.asarray(lengths, dtype=np.intp)
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
    ended = by_length[by_length > 0]
    last = offsets[ended - 1] + np.arange(len(ended))
    return PackedLayout(order, rank, sizes.tolist(), offsets, rows, last, len(rows))


@dataclass
class EncoderCache:
    layout: PackedLayout
    layer_caches: list[list]  # [layer][t] step caches, in processing order
    outputs: np.ndarray  # top-layer state after each step, packed rows of the layout


class BranchEncoder:
    """One stacked recurrent encoder with a fixed reading direction.

    LEFT and NUGGET branches read forward; the RIGHT branch reads backward
    (its inputs are reversed before encoding). The representation is the
    final hidden state of the top layer; an empty branch yields the zero
    vector and touches no parameters.

    A batch of sequences runs as one recurrence: each layer first projects
    all of its packed input rows in one product, then each step is one
    product of the states of the sequences still running (see
    PackedLayout). One sequence is the batch of one.
    """

    def __init__(
        self, branch: Branch, kind: str, hidden: int, layers: list, backward: bool
    ) -> None:
        self.branch = branch
        self.kind = kind
        self.hidden = hidden
        self.layers = layers
        self.backward = backward

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
        prefix = branch.name.lower()
        layers = [
            _build_layer(
                store, f"{prefix}.l{i}", kind, d_in if i == 0 else hidden, hidden, rng
            )
            for i in range(n_layers)
        ]
        return cls(branch, kind, hidden, layers, backward=(branch is Branch.RIGHT))

    def encode(
        self,
        vectors: np.ndarray | Sequence[np.ndarray],
        *,
        lengths: Sequence[int] | None = None,
    ) -> tuple[np.ndarray, EncoderCache]:
        """Encode a (T, d_in) input matrix, or any sequence of T vectors,
        given in the branch's token order: returns the (hidden,)
        representation. With `lengths`, the rows are a batch of sequences
        stacked in batch order: returns one representation per sequence,
        (B, hidden) in batch order.

        The cache keeps the top layer's state after every step, so one pass
        also yields the representation of each prefix of each sequence's
        processing order (each suffix of its tokens, for the RIGHT branch):
        `cache.outputs[cache.layout.row(t, seq)]`, which for one sequence
        is `cache.outputs[t]`."""
        inputs = np.asarray(vectors, dtype=np.float64)
        layout = PackedLayout.of([len(inputs)] if lengths is None else lengths, self.backward)
        if layout.n_rows != len(inputs):
            raise ConfigurationError(
                f"encode: lengths sum to {layout.n_rows}, inputs have {len(inputs)} rows"
            )
        if not len(inputs):
            cache = EncoderCache(layout, [], np.zeros((0, self.hidden)))
            reps = np.zeros(self.hidden if lengths is None else (len(lengths), self.hidden))
            return reps, cache
        if inputs.shape[1] != self.layers[0].W.shape[1]:
            raise ConfigurationError(
                f"encode: inputs {inputs.shape}, layer 0 W {self.layers[0].W.shape}"
            )
        inputs = inputs[layout.rows]
        steps = list(zip(layout.offsets.tolist(), layout.sizes))
        layer_caches = []
        for layer in self.layers:
            # every step's input projection, with the bias, as one product
            wx = inputs @ layer.W.values.T + layer.b.values
            h = c = np.zeros((layout.sizes[0], self.hidden))
            weights = _gru_weights(layer) if self.kind == "gru" else layer.U.values.T
            step_caches, states = [], []
            for o, n in steps:
                x, x_w = inputs[o : o + n], wx[o : o + n]
                if self.kind == "gru":
                    h, sc = _gru_step(x, x_w, h[:n], weights)
                else:
                    h, c, sc = _lstm_step(x, x_w, h[:n], c[:n], weights)
                step_caches.append(sc)
                states.append(h)
            layer_caches.append(step_caches)
            inputs = np.concatenate(states)
        cache = EncoderCache(layout, layer_caches, inputs)
        if lengths is None:
            return h[0], cache
        reps = np.zeros((len(lengths), self.hidden))
        reps[layout.order[: len(layout.last)]] = cache.outputs[layout.last]
        return reps, cache

    def backprop(self, d_outputs: np.ndarray, cache: EncoderCache) -> np.ndarray:
        """BPTT from the gradient of `cache.outputs`, (n_rows, hidden), which
        may enter at any packed row; returns the input gradients, (T, d_in)
        rows in the order of `encode`'s inputs."""
        if d_outputs.shape != cache.outputs.shape:
            raise ConfigurationError(
                f"backprop: d_outputs {d_outputs.shape}, outputs {cache.outputs.shape}"
            )
        if not cache.layer_caches:
            return np.zeros((0, self.layers[0].W.shape[1]))
        layout = cache.layout
        d_above = [d_outputs[o : o + n] for o, n in zip(layout.offsets.tolist(), layout.sizes)]
        for layer, step_caches in zip(reversed(self.layers), reversed(cache.layer_caches)):
            dh_next = np.zeros((layout.sizes[0], self.hidden))
            dc_next = np.zeros((layout.sizes[0], self.hidden))
            for t in range(len(d_above) - 1, -1, -1):
                n = len(d_above[t])
                dh = d_above[t] + dh_next[:n]
                if self.kind == "gru":
                    dh_next[:n], d_above[t] = gru_step_backward(dh, step_caches[t], layer)
                else:
                    dh_next[:n], dc_next[:n], d_above[t] = lstm_step_backward(
                        dh, dc_next[:n], step_caches[t], layer
                    )
        d_inputs = np.concatenate(d_above)
        d_unpacked = np.empty_like(d_inputs)
        d_unpacked[layout.rows] = d_inputs
        return d_unpacked


# ---------------------------------------------------------------------------
# Classification head and losses
# ---------------------------------------------------------------------------


@dataclass
class HeadCache:
    mask: np.ndarray | None
    acts: list[np.ndarray]  # acts[0] = (dropped) input, then post-tanh per layer
    probs: np.ndarray


class Head:
    """Dropout on the concatenated representation, tanh FC stack, output.

    Works on (B, 3h) rows, one per example; `forward` also takes one
    (3h,) vector.
    """

    def __init__(
        self,
        hidden: list[tuple[ParamTensor, ParamTensor]],
        out_w: ParamTensor,
        out_b: ParamTensor,
        head_mode: str,
        dropout: float,
    ) -> None:
        self.hidden = hidden
        self.out_w = out_w
        self.out_b = out_b
        self.head_mode = head_mode
        self.dropout = dropout

    @classmethod
    def build(
        cls, cfg: ModelConfig, labels: LabelSet, store: ParamStore, rng: Rng | None
    ) -> "Head":
        widths = cfg.resolved_head_hidden()
        n_out = labels.n_classes if cfg.head_mode == "softmax" else len(labels.event_types)
        hidden = []
        d = 3 * cfg.hidden_size
        for i, w in enumerate(widths):
            W = store.create(f"head.l{i}.W", init_uniform_scaled((w, d), rng))
            b = store.create(f"head.l{i}.b", np.zeros(w))
            hidden.append((W, b))
            d = w
        out_w = store.create("head.out.W", init_uniform_scaled((n_out, d), rng))
        out_b = store.create("head.out.b", np.zeros(n_out))
        return cls(hidden, out_w, out_b, cfg.head_mode, cfg.dropout)

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
        for W, b in self.hidden:
            x = np.tanh(x @ W.values.T + b.values)
            acts.append(x)
        logits = x @ self.out_w.values.T + self.out_b.values
        probs = softmax(logits) if self.head_mode == "softmax" else sigmoid(logits)
        return probs, HeadCache(mask, acts, probs)

    def backprop(self, d_logits: np.ndarray, cache: HeadCache) -> np.ndarray:
        """Accumulates head grads, summed over the rows; returns the
        gradient w.r.t. the (pre-dropout) concatenated representation."""
        self.out_w.grad += np.dot(d_logits.T, cache.acts[-1])
        self.out_b.grad += d_logits.sum(axis=0)
        dx = d_logits @ self.out_w.values
        for k in range(len(self.hidden) - 1, -1, -1):
            W, b = self.hidden[k]
            post = cache.acts[k + 1]
            da = dx * (1.0 - post * post)
            W.grad += np.dot(da.T, cache.acts[k])
            b.grad += da.sum(axis=0)
            dx = da @ W.values
        if cache.mask is not None:
            dx = dx * cache.mask
        return dx


def softmax_nll(probs: np.ndarray, gold_class: int) -> tuple[float, np.ndarray]:
    """Negative log likelihood and its gradient w.r.t. the logits."""
    loss = -math.log(max(float(probs[gold_class]), _LOG_CLAMP))
    d_logits = probs.copy()
    d_logits[gold_class] -= 1.0
    return loss, d_logits


def sigmoid_bce(probs: np.ndarray, targets: np.ndarray) -> tuple[float, np.ndarray]:
    """Summed binary cross-entropy over event types; gradient w.r.t. logits."""
    p = np.clip(probs, _LOG_CLAMP, 1.0 - _LOG_CLAMP)
    loss = float(-(targets * np.log(p) + (1.0 - targets) * np.log(1.0 - p)).sum())
    return loss, probs - targets


# ---------------------------------------------------------------------------
# Full model
# ---------------------------------------------------------------------------


_BRANCHES = (Branch.LEFT, Branch.NUGGET, Branch.RIGHT)  # order of the concatenated reps


@dataclass
class ModelCache:
    rows: dict[Branch, np.ndarray]  # word rows of each branch's inputs
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

    # -- targets ------------------------------------------------------

    def target_class(self, types: tuple[str, ...]) -> int:
        """Softmax target. Multi-label gold collapses to its first listed
        type (the softmax head cannot express more than one)."""
        if not types:
            return LabelSet.NON_EVENT_INDEX
        return self.labels.class_index(types[0])

    def target_vector(self, types: tuple[str, ...]) -> np.ndarray:
        y = np.zeros(len(self.labels.event_types))
        for t in types:
            y[self.labels.type_offset(t)] = 1.0
        return y

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
        losses = []
        d_logits = np.empty_like(probs)
        for k, (p, t) in enumerate(zip(probs, types)):
            loss, d_logits[k] = self._loss(p, t)
            if not math.isfinite(loss):
                raise NumericError(f"non-finite loss {loss!r}", position=k)
            losses.append(loss)
        d_concat = self.head.backprop(d_logits, cache.head)
        h = self.cfg.hidden_size
        for k, branch in enumerate(_BRANCHES):
            candidate, row = cache.reads[branch]
            # every split is its own group, so no two candidates read one row
            d_outputs = np.zeros_like(cache.enc[branch].outputs)
            d_outputs[row] = d_concat[candidate, k * h : (k + 1) * h]
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

        NUGGET reads every candidate's span, LEFT each group's tokens before
        its last candidate start, RIGHT those after its first candidate end.
        A candidate reads each non-empty part's representation at the packed
        row of its state after step len(part) - 1. With `keep` the cache
        holds what a backward pass needs; without it each encoder cache is
        dropped once read, so a forward-only pass holds one at a time."""
        lefts, rights, nuggets = [], [], []
        # per branch, flat (candidate, step, sequence) triples of the non-empty parts
        left_needs, nugget_needs, right_needs = needs = [], [], []
        for splits in filter(None, groups):
            if any(split.tokens != splits[0].tokens for split in splits[1:]):
                raise ValueError("batch_proba: one group holds splits of different sentences")
            j = len(lefts)
            for split in splits:
                c = len(nuggets)
                if split.left:
                    left_needs += c, len(split.left) - 1, j
                if split.nugget:
                    nugget_needs += c, len(split.nugget) - 1, c
                if split.right:
                    right_needs += c, len(split.right) - 1, j
                nuggets.append(split.nugget)
            lefts.append(max((split.left for split in splits), key=len))
            rights.append(max((split.right for split in splits), key=len))
        h = self.cfg.hidden_size
        reps = np.zeros((len(nuggets), 3 * h))
        rows, encs, reads = {}, {}, {}
        # any order gives the same bits; LEFT first measured more page faults
        for k, branch, texts in ((1, Branch.NUGGET, nuggets), (0, Branch.LEFT, lefts),
                                 (2, Branch.RIGHT, rights)):
            word_rows, enc = self._encode(branch, texts)
            candidate, step, seq = np.array(needs[k], dtype=np.intp).reshape(-1, 3).T
            row = enc.layout.row(step, seq)
            reps[candidate, k * h : (k + 1) * h] = enc.outputs[row]
            if keep:
                rows[branch], encs[branch], reads[branch] = word_rows, enc, (candidate, row)
            del word_rows, enc
        probs, head_cache = self.head.forward(reps, rng)
        return probs, ModelCache(rows, encs, reads, head_cache)

    def _encode(
        self, branch: Branch, texts: Sequence[tuple[str, ...]]
    ) -> tuple[np.ndarray, EncoderCache]:
        """One recurrence of the branch's encoder over these token
        sequences: their word rows and the pass's cache."""
        inputs, rows = self.embedder.assemble_input(tuple(chain.from_iterable(texts)), branch)
        return rows, self.encoders[branch].encode(inputs, lengths=[len(t) for t in texts])[1]

    def predict(self, split: BranchSplit, threshold: float = 0.5) -> tuple[str, ...]:
        """Predicted event types of one split; see `decode`."""
        return self.decode(self.predict_proba(split), threshold)

    def decode(self, probs: np.ndarray, threshold: float = 0.5) -> tuple[str, ...]:
        """Event types of a probability vector; empty tuple means non-event.

        Softmax: the argmax class (ties broken toward the lowest class
        index). Sigmoid: every type whose probability exceeds `threshold`.
        """
        if self.cfg.head_mode == "softmax":
            k = int(np.argmax(probs))
            t = self.labels.type_at(k)
            return () if t is None else (t,)
        picked = [
            self.labels.event_types[j]
            for j in range(probs.shape[0])
            if probs[j] > threshold
        ]
        return tuple(picked)

    def loss(self, split: BranchSplit, types: tuple[str, ...]) -> float:
        """Loss without dropout and without touching gradients."""
        return self._loss(self.predict_proba(split), types)[0]

    def _loss(
        self, probs: np.ndarray, types: tuple[str, ...]
    ) -> tuple[float, np.ndarray]:
        """The head's loss and its gradient w.r.t. the logits."""
        if self.cfg.head_mode == "softmax":
            return softmax_nll(probs, self.target_class(types))
        return sigmoid_bce(probs, self.target_vector(types))


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

    Without an rng every tensor is zero-filled, ready for `load_values`.
    """
    cfg.validate()
    store = ParamStore()
    word = WordTable.build(ordered_words, cfg.word_dim, rng, store, pretrained)
    branch = BranchTable.build(cfg.branch_dim, rng, store) if cfg.use_branch else None
    embedder = Embedder(word, branch)
    encoders = {
        b: BranchEncoder.build(
            b, cfg.cell, embedder.input_dim, cfg.hidden_size, cfg.layers, store, rng
        )
        for b in _BRANCHES
    }
    head = Head.build(cfg, labels, store, rng)
    store.pack()
    return NuggetModel(cfg, labels, store, embedder, encoders, head)


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
