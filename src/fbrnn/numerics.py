"""Dense float64 numeric kernel.

Everything the encoders and classifier need that is not model specific:
named parameter tensors declared as views of one flat value array and one
flat gradient array, stable activations,
scaled-uniform initialization, inverted dropout, SGD/Adam updates with
global-norm clipping, a portable deterministic RNG and a central-difference
gradient checker.

All arrays are float64. The model is small enough that determinism and
gradient-check precision matter more than speed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .errors import ConfigurationError, NumericError

__all__ = [
    "Rng",
    "ParamSpec",
    "ParamTensor",
    "ParamStore",
    "RowRegion",
    "sigmoid",
    "softmax",
    "init_uniform_scaled",
    "dropout_mask",
    "sgd_step",
    "adam_step",
    "clip_gradients",
    "check_optimizer_hyperparameters",
    "Optimizer",
    "GradCheckReport",
    "grad_check",
]


# Entries per block of an array pass: 64K entries (512 KB of float64 or
# uint64). In blocks the optimizer kernels and the RNG's array draws make no
# temporaries, writing only into the block and a few scratch blocks: the
# optimizer step measured 3.0-4.1x faster than array expressions from
# 111,500 entries up (README, "Parameter layout and the optimizer step").
UPDATE_BLOCK = 1 << 16


def _blocks(n: int) -> Iterator[slice]:
    for start in range(0, n, UPDATE_BLOCK):
        yield slice(start, min(start + UPDATE_BLOCK, n))


# ---------------------------------------------------------------------------
# Portable RNG
# ---------------------------------------------------------------------------

# SplitMix64: a 64-bit counter advanced by a fixed odd increment, output
# mixed by two xor-shift-multiply rounds.  The generator is fully specified
# by the three constants below, so identical seeds yield identical streams
# on every platform. The mixer is written twice, for one stream: on Python
# ints for a single draw (no numpy call), and with in-place uint64 ufuncs
# for an array of draws, whose words state + k*GAMMA are known up front.
# Tests pin both to the published reference outputs.
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_MASK64 = (1 << 64) - 1
# The array path's operands are numpy scalars throughout: before NEP 50
# (numpy < 2) a Python int with a uint64 array promotes to float64.
_U64_ROUNDS = tuple((np.uint64(s), np.uint64(m)) for s, m in ((30, _MIX1), (27, _MIX2)))
_U64_GAMMA, _U64_31, _U64_11 = np.uint64(_GAMMA), np.uint64(31), np.uint64(11)
_UNIT = np.float64(2.0**-53)  # a 53-bit integer times this is exact, in [0, 1)


def _mix(z: np.ndarray, t: np.ndarray) -> None:
    """SplitMix64's output mix of the words `z`, in place; `t` is scratch."""
    for shift, mul in _U64_ROUNDS:
        np.right_shift(z, shift, out=t)
        z ^= t
        z *= mul
    np.right_shift(z, _U64_31, out=t)
    z ^= t


class Rng:
    """Deterministic SplitMix64 stream of 64-bit words and derived draws."""

    def __init__(self, seed: int) -> None:
        self._state = int(seed) & _MASK64

    def next_u64(self) -> int:
        self._state = z = (self._state + _GAMMA) & _MASK64
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        return z ^ (z >> 31)

    def _words(self, n: int) -> Iterator[tuple[slice, np.ndarray]]:
        """The next `n` words, one `_blocks` slice at a time, each block mixed
        in one reused uint64 scratch block (overwritten by the next)."""
        size = min(n, UPDATE_BLOCK)
        steps = np.arange(1, size + 1, dtype=np.uint64)
        steps *= _U64_GAMMA  # k * GAMMA, the k-th word's offset from the state
        z, t = np.empty(size, np.uint64), np.empty(size, np.uint64)
        for b in _blocks(n):
            m = b.stop - b.start
            np.add(steps[:m], np.uint64(self._state), out=z[:m])
            self._state = (self._state + m * _GAMMA) & _MASK64
            _mix(z[:m], t[:m])
            yield b, z[:m]

    def u64_block(self, n: int) -> np.ndarray:
        """Next `n` raw 64-bit draws as a uint64 array."""
        out = np.empty(n, np.uint64)
        for b, words in self._words(n):
            out[b] = words
        return out

    def random(self, n: int | None = None) -> float | np.ndarray:
        """float64 draw(s) in [0, 1): the top 53 bits of each word."""
        if n is None:
            return (self.next_u64() >> 11) * 2.0**-53
        return self.uniform(0.0, 1.0, n)  # 0 + 1 * u keeps u's bits

    def uniform(
        self, low: float, high: float, n: int | None = None, out: np.ndarray | None = None
    ) -> float | np.ndarray:
        """`low + (high - low) * u` for unit draw(s) u: one float, `n` in a new
        array, or one per entry of the C-contiguous float64 array `out`,
        filled in place and returned. Each block of an array draw is
        converted straight into the result."""
        if n is None and out is None:
            return low + (high - low) * self.random()
        if out is None:
            out = np.empty(n)
        elif not out.flags.c_contiguous:
            raise ConfigurationError("uniform draws into a C-contiguous array only")
        flat = out.reshape(-1)  # a view: `out` is contiguous
        for b, words in self._words(flat.size):
            block = flat[b]
            np.right_shift(words, _U64_11, out=words)
            np.multiply(words, _UNIT, out=block, dtype=np.float64)
            block *= high - low
            block += low
        return out

    def randint(self, bound: int) -> int:
        """Integer in [0, bound). Maps a 64-bit word by modulo; the bias is
        negligible for the small bounds used here."""
        if bound <= 0:
            raise ConfigurationError(f"randint bound must be positive, got {bound}")
        return self.next_u64() % bound

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle."""
        for i in range(len(items) - 1, 0, -1):
            j = self.randint(i + 1)
            items[i], items[j] = items[j], items[i]

    def choice(self, seq: Sequence):
        if not seq:
            raise ConfigurationError("choice from an empty sequence")
        return seq[self.randint(len(seq))]

    def weighted_index(self, weights: Sequence[float]) -> int:
        """Index i with probability weights[i] / sum(weights)."""
        total = float(sum(weights))
        # a NaN or infinite weight makes the total NaN or infinite
        if not weights or not 0.0 < total < math.inf or min(weights) < 0.0:
            raise ConfigurationError(
                "weighted_index needs finite non-negative weights with a positive sum"
            )
        r = self.random() * total
        acc = 0.0
        for i, w in enumerate(weights):
            acc += float(w)
            if r < acc:
                return i
        return len(weights) - 1

    def spawn(self, salt: int = 0) -> "Rng":
        """Derive an independent sub-stream; advances this stream by one draw."""
        return Rng((self.next_u64() + salt) & _MASK64)


# ---------------------------------------------------------------------------
# Parameters
# ---------------------------------------------------------------------------


class ParamSpec(NamedTuple):
    """A tensor a `ParamStore` declares: its name, shape and whether it
    tracks the rows a gradient reached (see `ParamTensor`)."""

    name: str
    shape: tuple[int, ...]
    track_rows: bool = False


class ParamTensor:
    """A named float64 view into its store's flat values, with the
    same-shaped view of the flat gradient, and their `shape`. A row-tracked
    tensor also holds `reached`, one boolean per row that `add_row_grads`
    sets and nothing clears; for any other tensor `reached` is None.
    """

    __slots__ = ("name", "values", "grad", "reached", "shape")

    def __init__(self, name: str, values: np.ndarray, grad: np.ndarray, track_rows: bool) -> None:
        self.name = name
        self.values = values
        self.grad = grad
        self.reached = np.zeros(values.shape[0], dtype=bool) if track_rows else None
        self.shape = values.shape

    def add_row_grads(self, rows: np.ndarray, grads: np.ndarray) -> None:
        """`grad[rows] += grads` for distinct rows of a row-tracked tensor; marks them reached."""
        self.reached[rows] = True
        self.grad[rows] += grads

    @property
    def size(self) -> int:
        return int(self.values.size)

    def __repr__(self) -> str:
        return f"ParamTensor({self.name!r}, shape={self.shape})"


class RowRegion(NamedTuple):
    """Rows of a flat store array: a row-tracked tensor's reached rows, or a
    run of untracked tensors as one row (`rows=slice(None)`)."""

    span: slice  # the entries of the tensor or run
    width: int  # entries per row
    rows: np.ndarray | slice  # reached row numbers, ascending, or slice(None)

    def take(self, flat: np.ndarray) -> np.ndarray:
        """These rows of `flat` as one 1-D array: a view if `rows` is a slice."""
        return flat[self.span].reshape(-1, self.width)[self.rows].reshape(-1)

    def put(self, flat: np.ndarray, part: np.ndarray | float) -> None:
        """Write a scalar, or an array shaped like `take`'s, into these rows;
        putting back `take`'s own view copies nothing."""
        matrix = flat[self.span].reshape(-1, self.width)
        matrix[self.rows] = part if np.isscalar(part) else part.reshape(-1, self.width)


class ParamStore:
    """Ordered collection of named ParamTensors; one writer at a time.

    The store is made from its tensors' declarations (`ParamSpec`s or
    tuples of the same fields), in order, and allocates one contiguous
    `values` array and one `grad` array for them at once. Each tensor is
    a view into both from the moment it exists. Both arrays start from
    `np.zeros`, so a model that is never drawn touches no page of them
    until a value is written.

    Zeroing, clipping and the optimizer step visit `live_regions()` only:
    every untracked tensor, and the rows of each row-tracked tensor that
    its `reached` marks. Invariant: outside the live regions `grad` and the
    optimizer's `m` and `v` are exactly zero, so skipping those entries
    gives the same bits as updating them (see `Optimizer`). Only
    `ParamTensor.add_row_grads`, which marks them, writes tracked rows; a
    flag on a row whose gradient stays zero costs time, never correctness.
    """

    def __init__(self, specs: Iterable[ParamSpec | tuple]) -> None:
        specs = [ParamSpec(name, tuple(int(s) for s in shape), *track)
                 for name, shape, *track in specs]
        names = [spec.name for spec in specs]
        for spec in specs:
            if names.count(spec.name) > 1:
                raise ConfigurationError(f"duplicate tensor name {spec.name!r}")
            if not spec.shape or min(spec.shape) < 1:
                raise ConfigurationError(f"tensor {spec.name!r} has no elements")
        sizes = [math.prod(spec.shape) for spec in specs]
        self.values = np.zeros(sum(sizes))  # all parameter values as one flat array
        self.grad = np.zeros(sum(sizes))  # all gradients, in the order of `values`
        self._tensors: dict[str, ParamTensor] = {}
        # merged flat slices of untracked tensors, and each row-tracked
        # tensor with its slice, in store order
        self._segments: list[slice | tuple[ParamTensor, slice]] = []
        offset = 0
        for (name, shape, track_rows), size in zip(specs, sizes):
            span = slice(offset, offset + size)
            t = ParamTensor(
                name, self.values[span].reshape(shape), self.grad[span].reshape(shape), track_rows
            )
            self._tensors[name] = t
            last = self._segments[-1] if self._segments else None
            if track_rows:
                self._segments.append((t, span))
            elif isinstance(last, slice) and last.stop == offset:
                self._segments[-1] = slice(last.start, span.stop)
            else:
                self._segments.append(span)
            offset = span.stop

    def __getitem__(self, name: str) -> ParamTensor:
        return self._tensors[name]

    def __contains__(self, name: str) -> bool:
        return name in self._tensors

    def __iter__(self) -> Iterator[ParamTensor]:
        return iter(self._tensors.values())

    def __len__(self) -> int:
        return len(self._tensors)

    def names(self) -> list[str]:
        return list(self._tensors)

    def live_regions(self) -> list[RowRegion]:
        """Where the flat arrays' gradients may be non-zero, in store order:
        one region per run of untracked tensors, and one per row-tracked
        tensor with a reached row. A store without row-tracked tensors is
        one region over everything."""
        regions = []
        for seg in self._segments:
            if isinstance(seg, slice):
                regions.append(RowRegion(seg, seg.stop - seg.start, slice(None)))
                continue
            t, span = seg
            rows = np.flatnonzero(t.reached)
            if rows.size:
                regions.append(RowRegion(span, t.size // len(t.reached), rows))
        return regions

    def zero_grads(self) -> None:
        for region in self.live_regions():
            region.put(self.grad, 0.0)

    def first_nonfinite(self, fill: Callable[[np.ndarray], None] | None = None) -> str | None:
        """The name of the first tensor holding NaN or Inf, or None. The flat
        values are checked one `UPDATE_BLOCK` piece at a time, each right
        after `fill(piece)`, if given, has written it: the piece is still in
        cache, and no full-size temporary is made."""
        finite = np.empty(min(self.values.size, UPDATE_BLOCK), dtype=bool)
        for b in _blocks(self.values.size):
            piece = self.values[b]
            if fill is not None:
                fill(piece)
            ok = np.isfinite(piece, out=finite[: piece.size])
            if not ok.all():
                bad = b.start + int(np.argmin(ok))
                return next(t.name for t, end in zip(self, accumulate(t.size for t in self))
                            if bad < end)
        return None

    def clone_values(self) -> np.ndarray:
        """A copy of the flat `values`, for `load_values` to restore."""
        return self.values.copy()

    def load_values(self, snapshot: np.ndarray) -> None:
        """Overwrite every value from a `clone_values` copy of this store."""
        np.copyto(self.values, snapshot)


# ---------------------------------------------------------------------------
# Activations
# ---------------------------------------------------------------------------


def sigmoid(x: np.ndarray | float) -> np.ndarray:
    """Elementwise logistic function, overflow-safe at both tails:
    1 / (1 + e^-x) for x >= 0 and e^x / (1 + e^x) below, with e^-|x| <= 1."""
    x = np.asarray(x, dtype=np.float64)
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def softmax(logits: np.ndarray | Sequence[float]) -> np.ndarray:
    """Stable softmax over a vector, or over each row of a matrix: max
    subtraction, sums to 1."""
    z = np.asarray(logits, dtype=np.float64)
    if z.ndim not in (1, 2) or z.shape[-1] < 1:
        raise ConfigurationError(
            f"softmax expects a non-empty vector or rows, got shape {z.shape}"
        )
    e = np.exp(z - np.maximum.reduce(z, axis=-1, keepdims=True))
    return np.divide(e, np.add.reduce(e, axis=-1, keepdims=True), out=e)


# ---------------------------------------------------------------------------
# Initialization and dropout
# ---------------------------------------------------------------------------


def init_uniform_scaled(out: np.ndarray, rng: Rng | None) -> np.ndarray:
    """Fill `out` with uniform draws in [-b, b], b = sqrt(6 / (fan_in + fan_out)),
    and return it.

    fan_out is shape[0] and fan_in shape[-1], so a vector's fans are both
    its length. Deterministic given the rng state. Without an rng `out` is
    left as it is: a model whose values are loaded next keeps its zeros.
    """
    if rng is not None:
        fan_out, fan_in = out.shape[0], out.shape[-1]
        bound = math.sqrt(6.0 / (fan_in + fan_out))
        rng.uniform(-bound, bound, out=out)
    return out


def dropout_mask(length: int, rate: float, rng: Rng) -> np.ndarray:
    """Inverted-dropout mask: zeros with probability `rate`, else 1/(1-rate).

    A zero rate returns all ones and draws nothing from `rng`.
    """
    if not 0.0 <= rate < 1.0:
        raise ConfigurationError(f"dropout rate must be in [0, 1), got {rate}")
    if rate == 0.0:
        return np.ones(length, dtype=np.float64)
    keep = rng.random(length) >= rate
    return keep.astype(np.float64) / (1.0 - rate)


# ---------------------------------------------------------------------------
# Optimizers
# ---------------------------------------------------------------------------

OPTIMIZER_KINDS = ("adam", "sgd")


def check_optimizer_hyperparameters(
    kind: str,
    lr: float,
    beta1: float,
    beta2: float,
    eps: float,
    clip_norm: float | None,
) -> None:
    """Raise ConfigurationError for values that would corrupt the weights."""
    if kind not in OPTIMIZER_KINDS:
        raise ConfigurationError(f"unknown optimizer kind {kind!r}")
    if not (math.isfinite(lr) and lr > 0.0):
        raise ConfigurationError(f"lr must be finite and positive, got {lr!r}")
    for name, beta in (("beta1", beta1), ("beta2", beta2)):
        if not 0.0 <= beta < 1.0:
            raise ConfigurationError(f"{name} must be in [0, 1), got {beta!r}")
    if not (math.isfinite(eps) and eps > 0.0):
        raise ConfigurationError(f"eps must be finite and positive, got {eps!r}")
    if clip_norm is not None and not clip_norm > 0.0:
        raise ConfigurationError(f"clip_norm must be positive or unset, got {clip_norm!r}")


def sgd_step(
    values: np.ndarray, grad: np.ndarray, lr: float, scratch: np.ndarray
) -> None:
    """values -= lr * grad, block by block; the gradient is left untouched."""
    for b in _blocks(values.size):
        g, p = grad[b], values[b]
        a = scratch[: g.size]
        np.multiply(g, lr, out=a)
        np.subtract(p, a, out=p)


def adam_step(
    values: np.ndarray,
    grad: np.ndarray,
    m: np.ndarray,
    v: np.ndarray,
    t: int,
    lr: float,
    beta1: float,
    beta2: float,
    eps: float,
    scratch: tuple[np.ndarray, np.ndarray],
) -> None:
    """Bias-corrected Adam step t: values -= lr * m_hat / (sqrt(v_hat) + eps).

    Updates the flat arrays in place, block by block. Each block performs
    the textbook per-array sequence of float64 operations in the same order,
    so the result does not depend on the block size.
    """
    if not values.shape == grad.shape == m.shape == v.shape:
        raise ConfigurationError(
            f"adam shape mismatch: values {values.shape}, grad {grad.shape}, "
            f"moments {m.shape} and {v.shape}"
        )
    c1 = 1.0 - beta1**t
    c2 = 1.0 - beta2**t
    for b in _blocks(values.size):
        g, mb, vb, p = grad[b], m[b], v[b], values[b]
        a, d = scratch[0][: g.size], scratch[1][: g.size]
        np.multiply(g, 1.0 - beta1, out=a)
        np.multiply(mb, beta1, out=mb)
        np.add(mb, a, out=mb)
        np.multiply(g, g, out=a)
        np.multiply(a, 1.0 - beta2, out=a)
        np.multiply(vb, beta2, out=vb)
        np.add(vb, a, out=vb)
        np.divide(vb, c2, out=d)
        np.sqrt(d, out=d)
        np.add(d, eps, out=d)
        np.divide(mb, c1, out=a)
        np.multiply(a, lr, out=a)
        np.divide(a, d, out=a)
        np.subtract(p, a, out=p)


def clip_gradients(store: ParamStore, max_norm: float | None) -> float:
    """Global-norm clipping across every tensor in the store.

    Returns the pre-clip norm, summed tensor by tensor in store order; a
    row-tracked tensor's sum of squares runs over its reached rows only,
    which changes the summation order but not the terms. Each sum of
    squares is numpy's own loop, not a BLAS dot, which OpenBLAS splits
    across threads from 10,000 entries: so the norm's bits do not depend on
    the BLAS thread count, and no step waits on a BLAS worker. Raises
    NumericError naming the first tensor with a non-finite gradient.
    """
    total = 0.0
    for t in store:
        g = (t.grad if t.reached is None else t.grad[t.reached]).reshape(-1)
        sq = float(np.einsum("i,i->", g, g))
        if not math.isfinite(sq):
            raise NumericError(f"non-finite gradient in tensor {t.name!r}")
        total += sq
    norm = math.sqrt(total)
    if max_norm is not None and norm > max_norm > 0.0:
        scale = max_norm / norm
        for region in store.live_regions():
            g = region.take(store.grad)
            g *= scale
            region.put(store.grad, g)
    return norm


class Optimizer:
    """Clipped SGD/Adam over the flat arrays of a ParamStore.

    Owns the Adam moments and two scratch blocks, so optimizer state lives
    exactly as long as the optimizer.

    A step visits the store's live regions only: each is gathered, stepped
    and scattered back (a run of untracked tensors through views, in place).
    An entry outside them has grad = m = v = 0, so dense Adam would subtract
    lr * (0 / c1) / (sqrt(0 / c2) + eps) = +0.0 and SGD lr * 0 = +0.0;
    p - (+0.0) is p for every p, -0.0 included. Skipping it therefore leaves
    the same bits as the dense step.
    """

    def __init__(
        self,
        store: ParamStore,
        kind: str = "adam",
        lr: float = 1e-3,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
        clip_norm: float | None = 5.0,
    ) -> None:
        check_optimizer_hyperparameters(kind, lr, beta1, beta2, eps, clip_norm)
        self.store = store
        self.kind = kind
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.clip_norm = clip_norm
        self.step_count = 0
        n = store.values.size
        if kind == "adam":
            self.m = np.zeros(n)
            self.v = np.zeros(n)
        block = min(n, UPDATE_BLOCK)
        self._scratch = (np.empty(block), np.empty(block))

    def step(self) -> float:
        """One update over all tensors; returns the pre-clip gradient norm.

        The gradient is left in place (clipped); the caller zeroes it.
        """
        norm = clip_gradients(self.store, self.clip_norm)
        self.step_count += 1
        flats = (self.store.values, self.store.grad)
        if self.kind == "adam":
            flats += (self.m, self.v)
        for region in self.store.live_regions():
            values, grad, *moments = (region.take(f) for f in flats)
            self._update(values, grad, *moments)
            region.put(self.store.values, values)  # the step only reads grad
            for flat, moment in zip(flats[2:], moments):
                region.put(flat, moment)
        return norm

    def _update(self, values, grad, m=None, v=None) -> None:
        """The unchanged dense step, on one region's arrays."""
        if self.kind == "adam":
            adam_step(
                values, grad, m, v, self.step_count,
                self.lr, self.beta1, self.beta2, self.eps, self._scratch,
            )
        else:
            sgd_step(values, grad, self.lr, self._scratch[0])


# ---------------------------------------------------------------------------
# Gradient checking
# ---------------------------------------------------------------------------


@dataclass
class GradCheckReport:
    """Result of a finite-difference pass over a parameter store."""

    max_rel_error: float
    per_tensor: dict[str, float] = field(default_factory=dict)
    worst_tensor: str | None = None


def grad_check(
    loss_fn: Callable[[], float],
    store: ParamStore,
    eps: float = 1e-5,
    tensors: Iterable[str] | None = None,
) -> GradCheckReport:
    """Compare the analytic gradients in `store.grad` against central differences.

    The caller runs its backward pass first and leaves the analytic
    gradient in `store.grad`. `loss_fn` only returns the loss; it must be
    deterministic (pass the model no dropout rng, fix any other rng). For every
    checked entry the relative error is |a - n| / max(|a|, |n|, 1e-8)
    where n = (f(x+eps) - f(x-eps)) / (2 eps); an entry where a or n is
    NaN or infinite counts as an error of inf. Gradient buffers are left
    zeroed on return.
    """
    if not (math.isfinite(eps) and eps > 0.0):
        raise ConfigurationError(
            f"gradient-check step must be finite and positive, got {eps!r}"
        )
    names = list(tensors) if tensors is not None else store.names()
    selected = [store[n] for n in names]

    analytic = {t.name: t.grad.copy() for t in selected}
    base1 = float(loss_fn())
    base2 = float(loss_fn())
    if base1 != base2:
        raise NumericError(
            f"loss function is not deterministic: {base1!r} != {base2!r}"
        )

    report = GradCheckReport(max_rel_error=0.0)
    for t in selected:
        flat_values = t.values.reshape(-1)
        flat_analytic = analytic[t.name].reshape(-1)
        worst = 0.0
        for i in range(flat_values.size):
            orig = flat_values[i]
            flat_values[i] = orig + eps
            f_plus = float(loss_fn())
            flat_values[i] = orig - eps
            f_minus = float(loss_fn())
            flat_values[i] = orig
            numeric = (f_plus - f_minus) / (2.0 * eps)
            a = float(flat_analytic[i])
            if math.isfinite(a) and math.isfinite(numeric):
                rel = abs(a - numeric) / max(abs(a), abs(numeric), 1e-8)
            else:
                rel = math.inf
            if rel > worst:
                worst = rel
        report.per_tensor[t.name] = worst
        if worst > report.max_rel_error:
            report.max_rel_error = worst
            report.worst_tensor = t.name
    store.zero_grads()
    return report
