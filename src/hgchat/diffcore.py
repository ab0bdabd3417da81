"""Dense float64 tensor core with a reverse-mode tape.

Every model computation in this package is composed from the primitive
kinds registered here. Design points:

- tensors are 2-D float64 matrices (vectors are 1xN rows, scalars 1x1);
- one thread records per process; parallel work forks. The process
  holds one stack of open tapes and the id of the thread that opened
  them. Recordings nest on that thread, and another thread that opens one
  meanwhile gets a ``ContractError``;
- with no tape open, primitives just compute values (the fast path used
  by generation, evaluation and the numeric side of gradient checks): a
  primitive tests the stack once, and one on a thread that does not
  record never reaches a tape;
- every forward returns a C-contiguous 2-D float64 array, and the output
  tensor is built from it unchecked; ``Tensor()`` checks and converts
  data that comes from outside;
- a tape is a list of primitive applications. The reverse sweep pops
  each entry before running its backward, and each output's gradient as
  it reads it, so an activation, its ``meta`` (a dropout mask, a
  ``Keep``) and its gradient are freed as soon as nothing else holds
  them; the sweep's peak stays near the forward tape's size, not twice
  it. It keys gradients by tensor identity, stores none for a constant
  (an input with no ``grad`` buffer, not from the tape), and
  adds the leaves' gradients into their ``grad`` buffers only once the
  whole sweep has run;
- kernels call numpy's direct entry points: ``ndarray.dot`` for
  products, ``ndarray.take`` for row gathers, a ufunc's ``reduce`` for
  reductions, ``out=`` on buffers the kernel made itself. At the sizes
  the model runs at, a numpy call costs about as much as its arithmetic,
  and the ``@`` operator, fancy indexing and the ``max``, ``sum`` and
  ``mean`` methods dispatch through more layers. Every kernel is bit for
  bit equal to the operator form that ``tests/oracles.py`` keeps. For
  products that holds on C- and F-ordered operands, the only layouts the
  model passes them: on a strided view, ``dot`` and ``@`` may pick
  different BLAS kernels;
- no kernel writes into its inputs, its ``out`` or its ``g``: a value
  may be shared, and a backward may return ``g`` itself (``add``);
- a masked softmax takes a ``Keep``: the flat indices of the kept entries
  and each row's count and start, built once from a boolean keep mask and
  cached by the code that makes the mask. ``softmax_rows`` has one masked
  path at every size: it gathers the kept entries, exponentiates them
  alone and scatters them into zeros.
"""
from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Callable, Iterator, Mapping

import numpy as np


class ShapeError(ValueError):
    """A primitive was applied to tensors whose shapes do not conform."""


class ContractError(RuntimeError):
    """An operation was called outside its contract (e.g. non-scalar loss)."""


class NumericalError(ArithmeticError):
    """A computation produced or encountered non-finite values."""


class Tensor:
    """2-D float64 matrix, optionally carrying a gradient buffer.

    Value buffers are treated as immutable while an evaluation is in
    flight; only the optimizer writes to parameter values, between steps.
    """

    __slots__ = ("values", "grad", "name")

    def __init__(self, values, requires_grad: bool = False, name: str | None = None):
        arr = np.asarray(values, dtype=np.float64)
        if arr.ndim == 0:
            arr = arr.reshape(1, 1)
        elif arr.ndim == 1:
            arr = arr.reshape(1, -1)
        elif arr.ndim != 2:
            raise ShapeError(f"tensors are 2-D, got ndim={arr.ndim}")
        self.values = np.ascontiguousarray(arr)
        self.grad = np.zeros_like(self.values) if requires_grad else None
        self.name = name

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape

    def item(self) -> float:
        if self.values.size != 1:
            raise ContractError(f"item() on tensor of shape {self.shape}")
        return float(self.values[0, 0])

    def zero_grad(self) -> None:
        if self.grad is not None:
            self.grad.fill(0.0)

    def __repr__(self) -> str:
        tag = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.shape}{tag})"


# A tape is a plain list of (kind, inputs, output, meta) entries in
# application order, so it is topological by construction. The reverse
# sweep keys its gradients by ``id(tensor)`` while it frees entries:
# every tensor it looks up was alive, held by the tape, when the sweep
# began, so no two of them share an id, and the sweep creates no Tensor
# that could take the address of one it has freed.
_tapes: list[list] = []  # the open tapes, innermost last; never rebound
_recorder: int | None = None  # the thread that opened them
_tapes_lock = threading.Lock()


@contextmanager
def recording() -> Iterator[list]:
    """Open a fresh tape on this thread; recordings nest. Raises
    ``ContractError`` while another thread records."""
    global _recorder
    tape: list[tuple] = []
    with _tapes_lock:
        if _tapes and _recorder != threading.get_ident():
            raise ContractError("another thread is recording; one thread records per process")
        _recorder = threading.get_ident()
        _tapes.append(tape)
    try:
        yield tape
    finally:
        with _tapes_lock:
            _tapes.pop()


# --- primitive registry ------------------------------------------------

class _Prim:
    __slots__ = ("forward", "backward")

    def __init__(self, forward, backward):
        self.forward = forward
        self.backward = backward


_PRIMS: dict[str, _Prim] = {}


def _register(kind: str, forward, backward) -> None:
    _PRIMS[kind] = _Prim(forward, backward)


def _shape_err(kind: str, arrays) -> ShapeError:
    shapes = ", ".join(str(a.shape) for a in arrays)
    return ShapeError(f"{kind}: shapes do not conform: {shapes}")


def _fwd_matmul(arrays, meta):
    a, b = arrays
    try:
        return a.dot(b)
    except ValueError:
        raise _shape_err("matmul", arrays) from None


def _bwd_matmul(arrays, meta, out, g):
    a, b = arrays
    return (g.dot(b.T), a.T.dot(g))


def _fwd_add(arrays, meta):
    a, b = arrays
    if a.shape != b.shape:
        raise _shape_err("add", arrays)
    return a + b


def _bwd_add(arrays, meta, out, g):
    return (g, g)


def _fwd_elem_mul(arrays, meta):
    a, b = arrays
    if a.shape != b.shape:
        raise _shape_err("elem_mul", arrays)
    return a * b


def _bwd_elem_mul(arrays, meta, out, g):
    a, b = arrays
    return (g * b, g * a)


def _fwd_scale(arrays, meta):
    return arrays[0] * meta["alpha"]


def _bwd_scale(arrays, meta, out, g):
    return (g * meta["alpha"],)


def _fwd_concat_cols(arrays, meta):
    try:
        return np.concatenate(arrays, axis=1)
    except ValueError:
        raise _shape_err("concat_cols", arrays) from None


def _bwd_concat_cols(arrays, meta, out, g):
    grads, at = [], 0
    for a in arrays:
        grads.append(g[:, at:at + a.shape[1]])
        at += a.shape[1]
    return tuple(grads)


def _fwd_concat_rows(arrays, meta):
    try:
        return np.concatenate(arrays, axis=0)
    except ValueError:
        raise _shape_err("concat_rows", arrays) from None


def _bwd_concat_rows(arrays, meta, out, g):
    grads, at = [], 0
    for a in arrays:
        grads.append(g[at:at + a.shape[0], :])
        at += a.shape[0]
    return tuple(grads)


def _fwd_transpose(arrays, meta):
    return arrays[0].T.copy()


def _bwd_transpose(arrays, meta, out, g):
    return (g.T,)


def _fwd_sigmoid(arrays, meta):
    # neither exp overflows: 1 / (1 + e^-x) for x >= 0, e^x / (1 + e^x) below,
    # the numerator being e^min(x, 0) and the denominator 1 + e^-|x|
    x = arrays[0]
    e = np.abs(x)
    np.negative(e, out=e)
    np.exp(e, out=e)
    out = np.minimum(x, 0.0)
    np.exp(out, out=out)
    e += 1.0
    out /= e
    return out


def _bwd_sigmoid(arrays, meta, out, g):
    gx = g * out
    gx *= 1.0 - out
    return (gx,)


def _fwd_relu(arrays, meta):
    return np.maximum(arrays[0], 0.0)


def _bwd_relu(arrays, meta, out, g):
    return (g * (arrays[0] > 0.0),)


def _fwd_tanh(arrays, meta):
    return np.tanh(arrays[0])


def _bwd_tanh(arrays, meta, out, g):
    gx = out * out
    np.subtract(1.0, gx, out=gx)
    gx *= g
    return (gx,)


class Keep:
    """The entries that a masked ``softmax_rows`` keeps of a (rows x cols)
    score matrix, built once from a 2-D boolean keep mask of that shape.

    It holds only what the kernel reads: ``index``, the flat (row-major)
    indices of the kept entries, and per row their number (``counts``) and
    where they begin in ``index`` (``starts``). Its arrays are read-only,
    as calls share them. Raises ``ContractError`` for anything but a 2-D
    boolean array, and for a row that keeps no entry, whose softmax has no
    value."""

    __slots__ = ("shape", "index", "counts", "starts")

    def __init__(self, mask: np.ndarray):
        if not (isinstance(mask, np.ndarray) and mask.dtype == np.bool_ and mask.ndim == 2):
            raise ContractError(f"a keep mask is a 2-D boolean array, got {_describe(mask)}")
        counts = np.count_nonzero(mask, axis=1)
        empty = np.flatnonzero(counts == 0)
        if empty.size:
            raise ContractError(f"keep mask row {empty[0]} keeps no entry")
        self.shape = mask.shape
        self.index = np.flatnonzero(mask)
        self.counts = counts
        self.starts = np.cumsum(counts) - counts
        for arr in (self.index, self.counts, self.starts):
            arr.flags.writeable = False


def _describe(value) -> str:
    if isinstance(value, np.ndarray):
        return f"a {value.ndim}-D {value.dtype} array"
    return type(value).__name__


def _fwd_softmax_rows(arrays, meta):
    x, keep = arrays[0], meta.get("keep")
    if keep is None:
        ex = x - np.maximum.reduce(x, axis=1, keepdims=True)
        np.exp(ex, out=ex)
    else:
        # exp of the kept entries alone, gathered row by row: numpy's exp is
        # several times slower where it underflows, and the masked entries
        # of the additive form all do
        if x.shape != keep.shape:
            raise ShapeError(f"softmax_rows: scores of shape {x.shape}, "
                             f"keep mask of shape {keep.shape}")
        kept = x.take(keep.index)
        kept -= np.repeat(np.maximum.reduceat(kept, keep.starts), keep.counts)
        np.exp(kept, out=kept)
        ex = np.zeros(x.shape)
        ex.put(keep.index, kept)
    ex /= np.add.reduce(ex, axis=1, keepdims=True)
    return ex


def _bwd_softmax_rows(arrays, meta, out, g):
    gx = g * out
    np.subtract(g, np.add.reduce(gx, axis=1, keepdims=True), out=gx)
    gx *= out
    return (gx,)


def _fwd_mean_rows(arrays, meta):
    x = arrays[0]
    total = np.add.reduce(x, axis=0, keepdims=True)
    total /= x.shape[0]
    return total


def _bwd_mean_rows(arrays, meta, out, g):
    n = arrays[0].shape[0]
    return ((g / n).repeat(n, axis=0),)


def _out_of_range(kind: str, idx: np.ndarray, n: int) -> None:
    """Raise the named ``IndexError`` if an entry of the intp ``idx`` is
    outside [0, n): one reduction, a negative index reading as a huge
    unsigned one."""
    if idx.size and np.maximum.reduce(idx.view(np.uintp)) >= n:
        bad = idx[(idx < 0) | (idx >= n)][0]
        raise IndexError(f"{kind}: index {bad} out of range [0, {n})")


def _fwd_row_lookup(arrays, meta):
    x = arrays[0]
    idx = meta["indices"]
    _out_of_range("row_lookup", idx, x.shape[0])
    return x.take(idx, axis=0)


def _bwd_row_lookup(arrays, meta, out, g):
    gx = np.zeros(arrays[0].shape)
    np.add.at(gx, meta["indices"], g)
    return (gx,)


def _fwd_affine(arrays, meta):
    # the bias is one row shared by every row of x, or one row per row of x
    x, w, b = arrays
    if x.shape[1] != w.shape[0] or b.shape not in ((1, w.shape[1]), (x.shape[0], w.shape[1])):
        raise _shape_err("affine", arrays)
    out = x.dot(w)
    out += b
    return out


def _bwd_affine(arrays, meta, out, g):
    x, w, b = arrays
    return (g.dot(w.T), x.T.dot(g),
            np.add.reduce(g, axis=0, keepdims=True) if b.shape[0] == 1 else g)


def _fwd_log(arrays, meta):
    return np.log(arrays[0])


def _bwd_log(arrays, meta, out, g):
    return (g / arrays[0],)


def _fwd_neg_pick(arrays, meta):
    p = arrays[0]
    idx = meta["indices"]
    if idx.shape[0] != p.shape[0]:
        raise _shape_err("neg_pick", arrays)
    _out_of_range("neg_pick", idx, p.shape[1])
    picked = p[np.arange(p.shape[0]), idx]
    return np.array([[-np.add.reduce(np.log(picked))]])


def _bwd_neg_pick(arrays, meta, out, g):
    p = arrays[0]
    idx = meta["indices"]
    gx = np.zeros(p.shape)
    rows = np.arange(p.shape[0])
    gx[rows, idx] = -g[0, 0] / p[rows, idx]
    return (gx,)


def _fwd_dropout(arrays, meta):
    return arrays[0] * meta["mask"]


def _bwd_dropout(arrays, meta, out, g):
    return (g * meta["mask"],)


_register("matmul", _fwd_matmul, _bwd_matmul)
_register("add", _fwd_add, _bwd_add)
_register("elem_mul", _fwd_elem_mul, _bwd_elem_mul)
_register("scale", _fwd_scale, _bwd_scale)
_register("concat_cols", _fwd_concat_cols, _bwd_concat_cols)
_register("concat_rows", _fwd_concat_rows, _bwd_concat_rows)
_register("transpose", _fwd_transpose, _bwd_transpose)
_register("sigmoid", _fwd_sigmoid, _bwd_sigmoid)
_register("relu", _fwd_relu, _bwd_relu)
_register("tanh", _fwd_tanh, _bwd_tanh)
_register("softmax_rows", _fwd_softmax_rows, _bwd_softmax_rows)
_register("mean_rows", _fwd_mean_rows, _bwd_mean_rows)
_register("row_lookup", _fwd_row_lookup, _bwd_row_lookup)
_register("affine", _fwd_affine, _bwd_affine)
_register("log", _fwd_log, _bwd_log)
_register("neg_pick", _fwd_neg_pick, _bwd_neg_pick)
_register("dropout", _fwd_dropout, _bwd_dropout)


def apply_primitive(kind: str, inputs: tuple[Tensor, ...], **meta) -> Tensor:
    """Apply one primitive; record it if this thread has a tape open."""
    prim = _PRIMS.get(kind)
    if prim is None:
        raise ValueError(f"unknown primitive kind: {kind!r}")
    # the forward's array is already C-contiguous 2-D float64: no Tensor() checks
    out = object.__new__(Tensor)
    out.values = prim.forward([t.values for t in inputs], meta)
    out.grad = None
    out.name = None
    if _tapes and _recorder == threading.get_ident():
        _tapes[-1].append((kind, inputs, out, meta))
    return out


# thin wrappers: the model code reads functionally

def matmul(a: Tensor, b: Tensor) -> Tensor:
    return apply_primitive("matmul", (a, b))


def add(a: Tensor, b: Tensor) -> Tensor:
    return apply_primitive("add", (a, b))


def elem_mul(a: Tensor, b: Tensor) -> Tensor:
    return apply_primitive("elem_mul", (a, b))


def scale(x: Tensor, alpha: float) -> Tensor:
    return apply_primitive("scale", (x,), alpha=float(alpha))


def concat_cols(*xs: Tensor) -> Tensor:
    return apply_primitive("concat_cols", xs)


def concat_rows(*xs: Tensor) -> Tensor:
    return apply_primitive("concat_rows", xs)


def transpose(x: Tensor) -> Tensor:
    return apply_primitive("transpose", (x,))


def sigmoid(x: Tensor) -> Tensor:
    return apply_primitive("sigmoid", (x,))


def relu(x: Tensor) -> Tensor:
    return apply_primitive("relu", (x,))


def tanh(x: Tensor) -> Tensor:
    return apply_primitive("tanh", (x,))


def softmax_rows(x: Tensor, keep: Keep | None = None) -> Tensor:
    """Softmax of each row over the entries that ``keep`` (a ``Keep`` of
    x's shape; None keeps all) marks; the others get exactly 0. It equals
    the softmax of x plus −1e30 at the masked entries bit for bit, at every
    size."""
    if keep is not None and not isinstance(keep, Keep):
        raise TypeError(f"softmax_rows: keep must be a Keep or None, got {_describe(keep)}")
    return apply_primitive("softmax_rows", (x,), keep=keep)


def mean_rows(x: Tensor) -> Tensor:
    return apply_primitive("mean_rows", (x,))


def row_lookup(x: Tensor, indices) -> Tensor:
    idx = np.asarray(indices, dtype=np.intp)
    if idx.ndim != 1:
        raise ShapeError(f"row_lookup: indices must be 1-D, got ndim={idx.ndim}")
    return apply_primitive("row_lookup", (x,), indices=idx)


def affine(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    return apply_primitive("affine", (x, w, b))


def log(x: Tensor) -> Tensor:
    return apply_primitive("log", (x,))


def neg_pick(probs: Tensor, indices) -> Tensor:
    """Scalar sum of -log(probs[i, indices[i]]); the shared loss path."""
    idx = np.asarray(indices, dtype=np.intp)
    if idx.ndim != 1:
        raise ShapeError(f"neg_pick: indices must be 1-D, got ndim={idx.ndim}")
    return apply_primitive("neg_pick", (probs,), indices=idx)


def dropout(x: Tensor, rate: float, rng: np.random.Generator) -> Tensor:
    """Inverted dropout with an explicit seeded mask; identity at rate 0."""
    if rate == 0.0:
        return x
    if not 0.0 < rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    keep = (rng.random(x.values.shape) >= rate) / (1.0 - rate)
    return apply_primitive("dropout", (x,), mask=keep)


def backward(loss: Tensor) -> None:
    """Reverse sweep from a scalar loss over the active tape.

    Adds this call's gradient into ``grad`` on every leaf that has a
    ``grad`` buffer and that the loss reaches (leaves it does not reach
    keep their buffers as they were), and consumes the tape. Each entry
    leaves the tape before its backward runs, and each output's gradient
    leaves the map when it is read, so what the sweep has consumed is
    freed unless the caller holds it. No delta is kept for a constant, an
    input with no ``grad`` buffer that was not produced on this tape:
    nothing reads one. Gradients stay keyed by ``id``: every tensor the
    sweep looks up was alive when it began, and it creates no ``Tensor``.
    If a backward kernel raises, the tape is left empty and no ``grad``
    changes, since leaves are added to only after the whole sweep.
    """
    if not _tapes or _recorder != threading.get_ident():
        raise ContractError("backward requires an active tape")
    tape = _tapes[-1]
    if loss.values.size != 1:
        raise ContractError(f"loss must be scalar, got shape {loss.shape}")
    produced = {id(entry[2]) for entry in tape}
    if id(loss) not in produced:
        raise ContractError("loss was not produced on the active tape")

    grads: dict[int, np.ndarray] = {id(loss): np.ones((1, 1))}
    owned: set[int] = {id(loss)}
    leaves: list[Tensor] = []
    try:
        while tape:
            kind, inputs, output, meta = tape.pop()
            g = grads.pop(id(output), None)
            if g is None:
                continue
            deltas = _PRIMS[kind].backward([t.values for t in inputs], meta, output.values, g)
            for tensor, delta in zip(inputs, deltas):
                key = id(tensor)
                cur = grads.get(key)
                if cur is None:
                    if tensor.grad is not None:
                        leaves.append(tensor)
                    elif key not in produced:
                        continue  # a constant: nothing reads its delta
                    grads[key] = delta  # maybe a shared/view array: copy before mutating
                else:
                    if key not in owned:
                        cur = cur.copy()
                        grads[key] = cur
                        owned.add(key)
                    cur += delta
    finally:
        tape.clear()

    for tensor in leaves:
        tensor.grad += grads[id(tensor)]


def grad_check(loss_builder: Callable[[], Tensor], params: Mapping[str, Tensor],
               eps: float = 1e-5) -> float:
    """Max relative error between tape gradients and central differences.

    ``loss_builder`` must be deterministic and read the parameters' current
    value buffers. Parameter values are perturbed in place and restored
    bit-exactly; their grad buffers are overwritten by the analytic sweep.
    """
    if not 0.0 < eps <= 1e-3:
        raise ValueError(f"eps must be in (0, 1e-3], got {eps}")
    for t in params.values():
        t.zero_grad()
    with recording():
        loss = loss_builder()
        backward(loss)
    analytic = {name: t.grad.copy() for name, t in params.items()}

    worst = 0.0
    for name, t in params.items():
        flat = t.values.reshape(-1)
        aflat = analytic[name].reshape(-1)
        for k in range(flat.size):
            orig = flat[k]
            flat[k] = orig + eps
            up = loss_builder().item()
            flat[k] = orig - eps
            down = loss_builder().item()
            flat[k] = orig
            if not (np.isfinite(up) and np.isfinite(down)):
                raise NumericalError(f"non-finite loss while perturbing {name}[{k}]")
            numeric = (up - down) / (2.0 * eps)
            err = abs(aflat[k] - numeric) / max(1.0, abs(aflat[k]))
            if err > worst:
                worst = err
    return worst
