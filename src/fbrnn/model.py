"""The forward-backward recurrent classifier.

Three separately parameterized recurrent encoders read the left context and
the nugget span left-to-right and the right context right-to-left. Each
branch reaches its encoder as one (T, d) input matrix gathered by the
embedder. The final hidden states are concatenated, passed through dropout
(applied exactly when the caller passes an Rng) and a small fully
connected stack, and classified by either a softmax over all classes
(non-event included) or independent sigmoids over the event types
(multi-label mode, where predicting nothing encodes non-event).

Gradients are computed analytically: each cell step caches its gates, the
encoder replays the steps in reverse (backpropagation through time, layer
by layer for stacked cells), and each branch's (T, d) input gradient is
scattered back into the word and branch embedding rows. Gradients
accumulate; callers zero the store between optimizer steps.

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
    store: ParamStore, prefix: str, kind: str, d_in: int, h: int, rng: Rng
) -> RecurrentLayer:
    # W_g then U_g, gate by gate: the values per-gate tensors would draw.
    blocks = [
        (
            init_uniform_scaled("W", (h, d_in), rng).values,
            init_uniform_scaled("U", (h, h), rng).values,
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
    if x.shape[0] != p.W.shape[1] or h_prev.shape[0] != p.U.shape[1]:
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
    _check_shapes("gru_step", x, h_prev, p)
    h = h_prev.shape[0]
    U, b = p.U.values, p.b.values
    wx = p.W.values @ x
    zr = sigmoid(wx[: 2 * h] + U[: 2 * h] @ h_prev + b[: 2 * h])
    z, r = zr[:h], zr[h:]
    rh = r * h_prev
    hc = np.tanh(wx[2 * h :] + U[2 * h :] @ rh + b[2 * h :])
    h_new = (1.0 - z) * h_prev + z * hc
    return h_new, GruStepCache(x, h_prev, zr, rh, hc)


def gru_step_backward(
    dh: np.ndarray, cache: GruStepCache, p: RecurrentLayer
) -> tuple[np.ndarray, np.ndarray]:
    """Accumulates parameter grads; returns (dh_prev, dx)."""
    h = dh.shape[0]
    z, r = cache.zr[:h], cache.zr[h:]
    U = p.U.values
    da = np.empty(3 * h)  # pre-activation gradients of z, r, c
    da[2 * h :] = dh * z * (1.0 - cache.hc * cache.hc)
    drh = U[2 * h :].T @ da[2 * h :]
    da[:h] = dh * (cache.hc - cache.h_prev) * z * (1.0 - z)
    da[h : 2 * h] = drh * cache.h_prev * r * (1.0 - r)

    p.W.grad += np.outer(da, cache.x)
    p.U.grad[: 2 * h] += np.outer(da[: 2 * h], cache.h_prev)
    p.U.grad[2 * h :] += np.outer(da[2 * h :], cache.rh)
    p.b.grad += da
    dh_prev = dh * (1.0 - z) + drh * r + U[: 2 * h].T @ da[: 2 * h]
    return dh_prev, p.W.values.T @ da


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
    _check_shapes("lstm_step", x, h_prev, p)
    h = h_prev.shape[0]
    gates = (p.W.values @ x + p.U.values @ h_prev) + p.b.values
    gates[: 3 * h] = sigmoid(gates[: 3 * h])
    np.tanh(gates[3 * h :], out=gates[3 * h :])
    i, f, o, g = gates[:h], gates[h : 2 * h], gates[2 * h : 3 * h], gates[3 * h :]
    c_new = f * c_prev + i * g
    tc = np.tanh(c_new)
    h_new = o * tc
    return h_new, c_new, LstmStepCache(x, h_prev, c_prev, gates, tc)


def lstm_step_backward(
    dh: np.ndarray, dc_in: np.ndarray, cache: LstmStepCache, p: RecurrentLayer
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Accumulates parameter grads; returns (dh_prev, dc_prev, dx)."""
    h = dh.shape[0]
    s = cache.gates[: 3 * h]  # the sigmoid gates i, f, o
    i, f, o, g = s[:h], s[h : 2 * h], s[2 * h :], cache.gates[3 * h :]
    dc = dc_in + dh * o * (1.0 - cache.tc * cache.tc)
    d_ifo = np.concatenate((dc * g, dc * cache.c_prev, dh * cache.tc))
    da = np.concatenate((d_ifo * s * (1.0 - s), dc * i * (1.0 - g * g)))

    p.W.grad += np.outer(da, cache.x)
    p.U.grad += np.outer(da, cache.h_prev)
    p.b.grad += da
    return p.U.values.T @ da, dc * f, p.W.values.T @ da


# ---------------------------------------------------------------------------
# Branch encoders
# ---------------------------------------------------------------------------


@dataclass
class EncoderCache:
    layer_caches: list[list]  # [layer][t] step caches, in processing order
    outputs: list[np.ndarray]  # top-layer hidden state after each step, same order


class BranchEncoder:
    """One stacked recurrent encoder with a fixed reading direction.

    LEFT and NUGGET branches read forward; the RIGHT branch reads backward
    (its inputs are reversed before encoding). The representation is the
    final hidden state of the top layer; an empty branch yields the zero
    vector and touches no parameters.
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
        rng: Rng,
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
        self, vectors: np.ndarray | Sequence[np.ndarray]
    ) -> tuple[np.ndarray, EncoderCache]:
        """Encode a (T, d_in) input matrix, or any sequence of T vectors,
        given in the branch's token order.

        The cache keeps the top layer's state after every step, so one pass
        also yields the representation of each prefix of the processing
        order (each suffix of the tokens, for the RIGHT branch)."""
        cache = EncoderCache(layer_caches=[], outputs=[])
        if len(vectors) == 0:
            return np.zeros(self.hidden), cache
        inputs = vectors[::-1] if self.backward else vectors
        for layer in self.layers:
            h = np.zeros(self.hidden)
            c = np.zeros(self.hidden)
            step_caches = []
            outputs = []
            for x in inputs:
                if self.kind == "gru":
                    h, sc = gru_step(x, h, layer)
                else:
                    h, c, sc = lstm_step(x, h, c, layer)
                step_caches.append(sc)
                outputs.append(h)
            cache.layer_caches.append(step_caches)
            inputs = outputs
        cache.outputs = inputs
        return inputs[-1], cache

    def backprop(self, d_rep: np.ndarray, cache: EncoderCache) -> np.ndarray:
        """BPTT from the representation gradient; returns the (T, d_in) input
        gradients in the branch's token order."""
        if not cache.layer_caches:
            return np.zeros((0, self.layers[0].W.shape[1]))
        T = len(cache.layer_caches[0])
        d_above = np.zeros((T, self.hidden))
        d_above[-1] = d_rep
        for layer, steps in zip(reversed(self.layers), reversed(cache.layer_caches)):
            dh_next = np.zeros(self.hidden)
            dc_next = np.zeros(self.hidden)
            d_inputs = np.empty((T, layer.W.shape[1]))
            for t in range(T - 1, -1, -1):
                dh = d_above[t] + dh_next
                if self.kind == "gru":
                    dh_next, dx = gru_step_backward(dh, steps[t], layer)
                else:
                    dh_next, dc_next, dx = lstm_step_backward(
                        dh, dc_next, steps[t], layer
                    )
                d_inputs[t] = dx
            d_above = d_inputs
        return d_above[::-1] if self.backward else d_above


# ---------------------------------------------------------------------------
# Classification head and losses
# ---------------------------------------------------------------------------


@dataclass
class HeadCache:
    mask: np.ndarray | None
    acts: list[np.ndarray]  # acts[0] = (dropped) input, then post-tanh per layer
    probs: np.ndarray


class Head:
    """Dropout on the concatenated representation, tanh FC stack, output."""

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
        cls, cfg: ModelConfig, labels: LabelSet, store: ParamStore, rng: Rng
    ) -> "Head":
        widths = cfg.resolved_head_hidden()
        n_out = labels.n_classes if cfg.head_mode == "softmax" else len(labels.event_types)
        hidden = []
        d = 3 * cfg.hidden_size
        for i, w in enumerate(widths):
            W = store.add(init_uniform_scaled(f"head.l{i}.W", (w, d), rng))
            b = store.create(f"head.l{i}.b", np.zeros(w))
            hidden.append((W, b))
            d = w
        out_w = store.add(init_uniform_scaled("head.out.W", (n_out, d), rng))
        out_b = store.create("head.out.b", np.zeros(n_out))
        return cls(hidden, out_w, out_b, cfg.head_mode, cfg.dropout)

    def forward(
        self, rep: np.ndarray, rng: Rng | None = None
    ) -> tuple[np.ndarray, HeadCache]:
        """Dropout draws its mask from `rng`; without one it is the identity."""
        if rng is not None and self.dropout > 0.0:
            mask = dropout_mask(rep.shape[0], self.dropout, rng)
            x = rep * mask
        else:
            mask = None
            x = rep
        acts = [x]
        for W, b in self.hidden:
            x = np.tanh(W.values @ x + b.values)
            acts.append(x)
        logits = self.out_w.values @ x + self.out_b.values
        probs = softmax(logits) if self.head_mode == "softmax" else sigmoid(logits)
        return probs, HeadCache(mask, acts, probs)

    def backprop(self, d_logits: np.ndarray, cache: HeadCache) -> np.ndarray:
        """Accumulates head grads; returns the gradient w.r.t. the
        (pre-dropout) concatenated representation."""
        self.out_w.grad += np.outer(d_logits, cache.acts[-1])
        self.out_b.grad += d_logits
        dx = self.out_w.values.T @ d_logits
        for k in range(len(self.hidden) - 1, -1, -1):
            W, b = self.hidden[k]
            post = cache.acts[k + 1]
            da = dx * (1.0 - post * post)
            W.grad += np.outer(da, cache.acts[k])
            b.grad += da
            dx = W.values.T @ da
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
    rows: dict[Branch, np.ndarray]
    enc: dict[Branch, EncoderCache]
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
        self, split: BranchSplit, rng: Rng | None = None
    ) -> tuple[np.ndarray, ModelCache]:
        """Class probabilities; dropout applies exactly when `rng` is given."""
        rows: dict[Branch, np.ndarray] = {}
        caches: dict[Branch, EncoderCache] = {}
        reps = []
        for branch, texts in zip(_BRANCHES, (split.left, split.nugget, split.right)):
            inputs, rows[branch] = self.embedder.assemble_input(texts, branch)
            rep, caches[branch] = self.encoders[branch].encode(inputs)
            reps.append(rep)
        probs, head_cache = self.head.forward(np.concatenate(reps), rng)
        return probs, ModelCache(rows, caches, head_cache)

    def forward_backward(
        self, split: BranchSplit, types: tuple[str, ...], rng: Rng | None = None
    ) -> float:
        """One example's loss; accumulates gradients into the store."""
        probs, cache = self.forward(split, rng)
        loss, d_logits = self._loss(probs, types)
        if not math.isfinite(loss):
            raise NumericError(f"non-finite loss {loss!r}")
        d_concat = self.head.backprop(d_logits, cache.head)
        h = self.cfg.hidden_size
        for k, branch in enumerate(_BRANCHES):
            d_inputs = self.encoders[branch].backprop(
                d_concat[k * h : (k + 1) * h], cache.enc[branch]
            )
            self.embedder.accumulate_grad(cache.rows[branch], branch, d_inputs)
        return loss

    # -- inference ------------------------------------------------------

    def predict_proba(self, split: BranchSplit) -> np.ndarray:
        probs, _ = self.forward(split)
        return probs

    def sentence_proba(self, splits: Sequence[BranchSplit]) -> list[np.ndarray]:
        """`predict_proba` of every split, for candidates of one sentence.

        Every split must partition the same tokens. One LEFT pass over the
        tokens before the last candidate start and one RIGHT pass over the
        tokens after the first candidate end serve all candidates: the LEFT
        state after token s - 1 is the left representation of a candidate
        starting at s, and the RIGHT state after reading token e + 1 is the
        right representation of one ending at e. A direction no candidate
        needs is not run. The nugget branch and the head run per candidate
        exactly as in `forward`, so the result is bit-identical to
        `predict_proba(split)` for each split.
        """
        if not splits:
            return []
        tokens = splits[0].left + splits[0].nugget + splits[0].right
        spans = []
        for split in splits:
            if split.left + split.nugget + split.right != tokens:
                raise ValueError("sentence_proba: splits of different sentences")
            spans.append((len(split.left), len(split.left) + len(split.nugget) - 1))
        T = len(tokens)
        left = self._pass_outputs(Branch.LEFT, tokens[: max(s for s, _ in spans)])
        right = self._pass_outputs(Branch.RIGHT, tokens[min(e for _, e in spans) + 1 :])
        empty = np.zeros(self.cfg.hidden_size)
        probs = []
        for split, (s, e) in zip(splits, spans):
            nugget, _ = self.embedder.assemble_input(split.nugget, Branch.NUGGET)
            rep, _ = self.encoders[Branch.NUGGET].encode(nugget)
            reps = (left[s - 1] if s else empty, rep, right[T - 2 - e] if e < T - 1 else empty)
            probs.append(self.head.forward(np.concatenate(reps))[0])
        return probs

    def _pass_outputs(self, branch: Branch, texts: tuple[str, ...]) -> list[np.ndarray]:
        """Top-layer states of one encoder pass in processing order; an
        empty branch runs no pass."""
        if not texts:
            return []
        inputs, _ = self.embedder.assemble_input(texts, branch)
        return self.encoders[branch].encode(inputs)[1].outputs

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
        probs, _ = self.forward(split)
        return self._loss(probs, types)[0]

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
    rng: Rng,
    pretrained: dict[str, np.ndarray] | None = None,
) -> NuggetModel:
    """Assemble a model from an explicit row-ordered word list (UNK first)."""
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

    model.forward_backward(positive, pos_types)
    model.forward_backward(negative, ())

    def loss_fn() -> float:
        return model.loss(positive, pos_types) + model.loss(negative, ())

    return grad_check(loss_fn, model.store, eps=eps)
