"""Dense float64 numeric kernel.

Everything the encoders and classifier need that is not model specific:
named parameter tensors packed into one flat value array and one flat
gradient array, stable activations,
scaled-uniform initialization, inverted dropout, SGD/Adam updates with
global-norm clipping, a portable deterministic RNG and a central-difference
gradient checker.

All arrays are float64. The model is small enough that determinism and
gradient-check precision matter more than speed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .errors import ConfigurationError, NumericError

__all__ = [
    "Rng",
    "ParamTensor",
    "ParamStore",
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


# ---------------------------------------------------------------------------
# Portable RNG
# ---------------------------------------------------------------------------

# SplitMix64: a 64-bit counter advanced by a fixed odd increment, output
# mixed by two xor-shift-multiply rounds.  The generator is fully specified
# by the three constants below, so identical seeds yield identical streams
# on every platform, and the whole state sequence for a block of draws can
# be computed vectorized.
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_MASK64 = (1 << 64) - 1


class Rng:
    """Deterministic SplitMix64 stream of 64-bit words and derived draws."""

    def __init__(self, seed: int) -> None:
        self._state = int(seed) & _MASK64

    def u64_block(self, n: int) -> np.ndarray:
        """Next `n` raw 64-bit draws as a uint64 array."""
        steps = np.arange(1, n + 1, dtype=np.uint64)
        z = np.uint64(self._state) + steps * np.uint64(_GAMMA)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
        z = z ^ (z >> np.uint64(31))
        self._state = (self._state + n * _GAMMA) & _MASK64
        return z

    def next_u64(self) -> int:
        return int(self.u64_block(1)[0])

    def random(self, n: int | None = None) -> float | np.ndarray:
        """float64 draw(s) in [0, 1): the top 53 bits of each word."""
        block = (self.u64_block(1 if n is None else n) >> np.uint64(11)).astype(
            np.float64
        ) * 2.0**-53
        return float(block[0]) if n is None else block

    def uniform(
        self, low: float, high: float, n: int | None = None
    ) -> float | np.ndarray:
        return low + (high - low) * self.random(n)

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
        total = float(sum(weights))
        if not weights or total <= 0.0:
            raise ConfigurationError("weighted_index needs positive total weight")
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


class ParamTensor:
    """Named float64 array with a same-shaped gradient buffer.

    Once the owning ParamStore is packed, `values` and `grad` are views into
    the store's flat arrays.
    """

    __slots__ = ("name", "values", "grad")

    def __init__(self, name: str, values: np.ndarray | Sequence) -> None:
        arr = np.asarray(values, dtype=np.float64)
        if arr.size == 0:
            raise ConfigurationError(f"tensor {name!r} has no elements")
        self.name = name
        self.values = arr
        self.grad = np.zeros(arr.shape)

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(self.values.shape)

    @property
    def size(self) -> int:
        return int(self.values.size)

    def __repr__(self) -> str:
        return f"ParamTensor({self.name!r}, shape={self.shape})"


class ParamStore:
    """Ordered collection of named ParamTensors; one writer at a time.

    The store packs its tensors once into one contiguous `values` array and
    one `grad` array, in insertion order; each tensor becomes a view into
    them. `assemble_model` packs when the model is complete; a hand-built
    store packs on first use of `values` or `grad`. A packed store accepts
    no new tensors.
    """

    def __init__(self) -> None:
        self._tensors: dict[str, ParamTensor] = {}
        self._values: np.ndarray | None = None
        self._grad: np.ndarray | None = None

    def create(self, name: str, values: np.ndarray | Sequence) -> ParamTensor:
        if self._values is not None:
            raise ConfigurationError(f"cannot add tensor {name!r}: the store is already packed")
        if name in self._tensors:
            raise ConfigurationError(f"duplicate tensor name {name!r}")
        tensor = ParamTensor(name, values)
        self._tensors[name] = tensor
        return tensor

    def pack(self) -> None:
        """Move every tensor into the flat arrays; a no-op once packed.

        Each old array is released as soon as it has been copied, so the
        word table never exists twice for long. The flat gradient starts
        from `np.zeros` and only non-zero gradients are copied into it, so
        its pages stay unallocated until the first backward pass.
        """
        if self._values is not None:
            return
        total = sum(t.size for t in self._tensors.values())
        values = np.empty(total)
        grad = np.zeros(total)
        offset = 0
        for t in self._tensors.values():
            end = offset + t.size
            view = values[offset:end].reshape(t.shape)
            view[...] = t.values
            t.values = view
            view = grad[offset:end].reshape(t.shape)
            if t.grad.any():
                view[...] = t.grad
            t.grad = view
            offset = end
        self._values, self._grad = values, grad

    @property
    def values(self) -> np.ndarray:
        """All parameter values as one flat float64 array."""
        self.pack()
        return self._values

    @property
    def grad(self) -> np.ndarray:
        """All gradients as one flat float64 array, in the order of `values`."""
        self.pack()
        return self._grad

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

    def zero_grads(self) -> None:
        self.grad.fill(0.0)

    def clone_values(self) -> dict[str, np.ndarray]:
        """Snapshot of every tensor: views into one copy of `values`."""
        flat = self.values.copy()
        views, offset = {}, 0
        for name, t in self._tensors.items():
            views[name] = flat[offset : offset + t.size].reshape(t.shape)
            offset += t.size
        return views

    def load_values(self, values: dict[str, np.ndarray]) -> None:
        """Overwrite every tensor from `values`; names and shapes must match."""
        missing = [n for n in self._tensors if n not in values]
        extra = [n for n in values if n not in self._tensors]
        if missing or extra:
            raise ConfigurationError(
                f"parameter set mismatch: missing={missing!r} extra={extra!r}"
            )
        parts = []
        for name, t in self._tensors.items():
            arr = np.asarray(values[name], dtype=np.float64)
            if tuple(arr.shape) != t.shape:
                raise ConfigurationError(
                    f"shape mismatch for tensor {name!r}: "
                    f"got {tuple(arr.shape)}, expected {t.shape}"
                )
            parts.append(arr.reshape(-1))
        np.concatenate(parts, out=self.values)


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
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


# ---------------------------------------------------------------------------
# Initialization and dropout
# ---------------------------------------------------------------------------


def init_uniform_scaled(shape: Sequence[int], rng: Rng | None) -> np.ndarray:
    """Uniform draws in [-b, b] with b = sqrt(6 / (fan_in + fan_out)).

    fan_out is shape[0]; fan_in is shape[-1] for matrices and shape[0] for
    vectors. Deterministic given the rng state. Without an rng the array
    is zero-filled, for a model whose values are loaded next.
    """
    shape = tuple(int(s) for s in shape)
    if not shape or any(s <= 0 for s in shape):
        raise ConfigurationError(f"invalid tensor shape {shape}")
    if rng is None:
        return np.zeros(shape)
    fan_out = shape[0]
    fan_in = shape[-1] if len(shape) > 1 else shape[0]
    bound = math.sqrt(6.0 / (fan_in + fan_out))
    flat = rng.uniform(-bound, bound, int(np.prod(shape)))
    return np.asarray(flat).reshape(shape)


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

# Entries per block of the optimizer update: 64K float64 entries (512 KB),
# so the arrays one block touches stay in cache between its operations.
UPDATE_BLOCK = 1 << 16


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
    if not eps > 0.0:
        raise ConfigurationError(f"eps must be positive, got {eps!r}")
    if clip_norm is not None and not clip_norm > 0.0:
        raise ConfigurationError(f"clip_norm must be positive or unset, got {clip_norm!r}")


def _blocks(n: int) -> Iterator[slice]:
    for start in range(0, n, UPDATE_BLOCK):
        yield slice(start, min(start + UPDATE_BLOCK, n))


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

    Returns the pre-clip norm, summed tensor by tensor in store order.
    Raises NumericError naming the first tensor with a non-finite gradient.
    """
    total = 0.0
    for t in store:
        sq = float(np.dot(t.grad.reshape(-1), t.grad.reshape(-1)))
        if not math.isfinite(sq):
            raise NumericError(f"non-finite gradient in tensor {t.name!r}")
        total += sq
    norm = math.sqrt(total)
    if max_norm is not None and norm > max_norm > 0.0:
        np.multiply(store.grad, max_norm / norm, out=store.grad)
    return norm


class Optimizer:
    """Clipped SGD/Adam over the flat arrays of a ParamStore.

    Owns the Adam moments and two scratch blocks, so optimizer state lives
    exactly as long as the optimizer.
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
        if self.kind == "adam":
            adam_step(
                self.store.values, self.store.grad, self.m, self.v, self.step_count,
                self.lr, self.beta1, self.beta2, self.eps, self._scratch,
            )
        else:
            sgd_step(self.store.values, self.store.grad, self.lr, self._scratch[0])
        return norm


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
    where n = (f(x+eps) - f(x-eps)) / (2 eps). Gradient buffers are left
    zeroed on return.
    """
    if not eps > 0.0:
        raise ConfigurationError(f"gradient-check step must be positive, got {eps!r}")
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
            rel = abs(a - numeric) / max(abs(a), abs(numeric), 1e-8)
            if rel > worst:
                worst = rel
        report.per_tensor[t.name] = worst
        if worst > report.max_rel_error:
            report.max_rel_error = worst
            report.worst_tensor = t.name
    store.zero_grads()
    return report
