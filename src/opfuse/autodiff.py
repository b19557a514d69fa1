"""Dense float64 tensors with tape-based reverse-mode differentiation.

Everything learned in this package (encoder, graph attention, fusion,
classifier head) is built from the primitives in this module.  Design
points:

* float64 everywhere; sizes are desk-scale, so gradient fidelity matters
  more than speed.
* Operations execute eagerly on numpy arrays.  When a ``Tape`` is active
  and an input requires gradients, the primitive application is recorded
  as a node; ``Tape.backward`` replays the node list once in reverse.
* Backward frees memory as it walks the tape.  Once a node's backward has
  run, the tape drops the node, and with it the forward arrays that its
  backward closed over; once the node that made a tensor has read that
  tensor's gradient, the gradient is dropped.  ``Gradients`` keeps leaf
  gradients only, and a tape's backward runs once.  There is no option to
  keep the rest.
* Every ``Tensor`` holds finite values only.  A value is checked where
  arithmetic can first make it non-finite, or where a non-finite value
  could vanish before the next check (``exp(-inf) = 0`` in a softmax);
  elsewhere IEEE 754 carries a NaN or an infinity into the next checked
  value (inf·0 = NaN), so the check there sees it.  Ops that cannot make
  finite inputs non-finite are not checked: those that only move values
  (``gather_rows``, ``concat``, ``reshape``, ``transpose``) and the bounded
  ones (``leaky_relu``, ``sigmoid``, ``softmax``, ``segment_softmax``).  A
  failure raises ``NonFiniteError`` naming the primitive that made the
  value: ``matmul produced non-finite values``.  In backward each gradient
  is checked once, as a whole when a node reads it, and at the end of
  ``Tape.backward`` when no node does (a leaf); a leaf's row parts are
  checked part by part.  Every backward failure reads ``backward produced
  non-finite values``.
* ``node`` records a node whose output and backward the caller computed,
  as the toy encoder records one node per minibatch.  ``project_heads`` is
  GAT's per-head projection as one node, with the bits of the composed
  primitives.
* ``gather_rows`` hands back a row-sparse gradient (indices plus rows);
  ``Tape.backward`` sums a tensor's row parts into one dense array only
  when that array is needed, so a table gathered by every record of a
  batch is scattered once per batch.  ``Gradients.rows`` hands every
  gradient to the optimizer as touched rows: a table's summed rows, without
  building the dense array at all, or every row of a dense gradient.
"""

from __future__ import annotations

import math
import threading
import weakref
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np


class NumericsError(Exception):
    """Base class for tensor/AD failures."""


class ShapeError(NumericsError):
    """Operands have incompatible shapes for the requested primitive."""


class NonFiniteError(NumericsError):
    """A primitive produced NaN or Inf."""


def _check_finite(name: str, arr: np.ndarray, replay: Callable[[], object] | None = None) -> None:
    """Raise ``NonFiniteError`` under ``name`` unless every element of ``arr`` is finite.

    Every finiteness pass in this module runs here.  On a failure a fused
    primitive's ``replay`` re-runs the checks of the path it stands for, in
    that path's order, and raises at the first that fails.
    """
    # A finite sum means every element is finite; a NaN or an infinity
    # always makes the sum non-finite.  Only then is the exact elementwise
    # check run, which clears a finite array whose sum overflowed.
    if not math.isfinite(arr.sum()) and not np.isfinite(arr).all():
        if replay is not None:
            replay()
        raise NonFiniteError(f"{name} produced non-finite values")


class Tensor:
    """Dense float64 array, optionally tracked for gradients.

    The value buffer is read-only to every caller, and a tensor keeps the
    buffer its constructor made for life.  Parameter updates between
    training steps (optimizer steps, checkpoint loads) write into it in
    place through :meth:`write_rows`, so a kept reference to ``data`` sees
    them: whoever needs a parameter's values later keeps a copy.  A write
    runs only after the backward of every tape that read the buffer, since
    backward functions read the arrays they close over when they run.
    """

    __slots__ = ("data", "requires_grad", "__weakref__")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.array(data, dtype=np.float64)
        _check_finite("tensor construction", arr)
        arr.setflags(write=False)
        object.__setattr__(self, "data", arr)
        object.__setattr__(self, "requires_grad", bool(requires_grad))

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() needs a single-element tensor, got shape {self.shape}")
        return float(self.data.reshape(()))

    def write_rows(self, rows, values: np.ndarray) -> None:
        """Set ``rows`` of the buffer to ``values`` in place.

        ``rows`` is an index array over the first axis, or ``...`` for the
        whole buffer (a 0-d one too).  Only the new values are checked for
        finiteness, and before any is written: on a failed check the buffer
        keeps its bytes.  The buffer is made writable only for the write,
        which needs a buffer that owns its memory, as the constructor's does.
        """
        values = np.asarray(values, dtype=np.float64)
        shape = self.data.shape if rows is ... else (len(rows),) + self.data.shape[1:]
        if values.shape != shape:
            raise ShapeError(f"write_rows got values of shape {values.shape}, needs {shape}")
        _check_finite("write_rows", values)
        self.data.setflags(write=True)
        try:
            self.data[rows] = values
        finally:
            self.data.setflags(write=False)

    def __setattr__(self, name, value):  # pragma: no cover - guard rail
        raise AttributeError("Tensor attributes are fixed; parameter updates go through "
                             "write_rows")

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"


def _wrap(arr: np.ndarray, requires_grad: bool) -> Tensor:
    """A Tensor over the float64 array ``arr`` itself, not a copy; ``arr`` becomes read-only."""
    out = Tensor.__new__(Tensor)
    arr.setflags(write=False)
    object.__setattr__(out, "data", arr)
    object.__setattr__(out, "requires_grad", requires_grad)
    return out


def _adopt(arr: np.ndarray) -> Tensor:
    """``Tensor(arr)`` without its copy: for float64 views into a read-only buffer."""
    _check_finite("tensor construction", arr)
    return _wrap(arr, False)


def as_tensor(x) -> Tensor:
    """Wrap plain values as constant (non-gradient) tensors."""
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=np.float64))


class _Node:
    """One recorded primitive application."""

    __slots__ = ("out", "inputs", "backward_fn")

    def __init__(self, out: Tensor, inputs: tuple[Tensor, ...],
                 backward_fn: Callable[[np.ndarray], tuple]):
        self.out = out
        self.inputs = inputs
        self.backward_fn = backward_fn


_ACTIVE = threading.local()


def _tape_stack() -> list["Tape"]:
    stack = getattr(_ACTIVE, "stack", None)
    if stack is None:
        stack = []
        _ACTIVE.stack = stack
    return stack


def active_tape() -> "Tape | None":
    stack = _tape_stack()
    return stack[-1] if stack else None


class _RowGrad(NamedTuple):
    """Gradient by rows of the first axis: ``rows[m]`` adds into row ``idx[m]``."""

    idx: np.ndarray
    rows: np.ndarray


class _Accumulator:
    """One tensor's gradient: a dense sum plus row-sparse parts not yet added.

    Nothing is checked as it is added; ``Tape.backward`` checks the gradient
    once, when a node reads it or, for a leaf, at the end.
    """

    __slots__ = ("tensor", "dense", "parts")

    def __init__(self, tensor: Tensor):
        self.tensor = tensor
        self.dense: np.ndarray | None = None
        self.parts: list[_RowGrad] = []

    def add(self, g) -> None:
        if isinstance(g, _RowGrad):
            self.parts.append(g)
            return
        # A first gradient may stay a view: later sums never write in place.
        self.dense = np.asarray(g, dtype=np.float64) if self.dense is None else self.dense + g

    def check_leaf(self) -> None:
        """Check a gradient no node read: the dense sum, and each row part on its own.

        Row parts are checked as they came, not summed: finite rows that
        overflow only in their sum reach the optimizer, whose own check on
        the rows it writes raises.
        """
        if self.dense is not None:
            _check_finite("backward", self.dense)
        for part in self.parts:
            _check_finite("backward", part.rows)

    def _joined_parts(self) -> _RowGrad:
        if len(self.parts) == 1:
            return self.parts[0]
        return _RowGrad(np.concatenate([p.idx for p in self.parts]),
                        np.concatenate([p.rows for p in self.parts]))

    def value(self) -> np.ndarray:
        """The dense gradient; every row part is scattered in one pass."""
        if self.parts:
            idx, parts = self._joined_parts()
            rows = _scatter_add_rows(parts, idx, self.tensor.shape[0])
            self.dense = rows if self.dense is None else self.dense + rows
            self.parts = []
        return self.dense

    def unique_rows(self) -> _RowGrad:
        """Sorted unique row indices of the row parts and each one's summed row.

        The bincount over the inverse indices adds each cell's terms in the
        same order as ``value`` does, so every sum has the same bits.
        """
        idx, parts = self._joined_parts()
        unique, inverse = np.unique(idx, return_inverse=True)
        return _RowGrad(unique, _scatter_add_rows(parts, inverse, unique.size))


class Gradients:
    """The leaf gradients that ``Tape.backward`` produced.

    A leaf is a tensor no recorded node made: a parameter, or an input
    that requires gradients.  Backward drops each other tensor's gradient
    as soon as the node that made the tensor has read it, so ``wrt`` and
    ``rows`` of such an intermediate raise ``RuntimeError``.  A tensor the
    loss never touched reads as exact zeros.
    """

    def __init__(self, store: dict[int, _Accumulator],
                 freed: dict[int, weakref.ref]):
        self._store = store
        self._freed = freed

    def _entry(self, t: Tensor) -> _Accumulator | None:
        entry = self._store.get(id(t))
        if entry is None:
            ref = self._freed.get(id(t))
            if ref is not None and ref() is t:
                raise RuntimeError("backward freed this tensor's gradient once the node "
                                   "that made it had read it; only leaf gradients are kept")
        return entry

    def wrt(self, t: Tensor) -> np.ndarray:
        entry = self._entry(t)
        if entry is None:
            return np.zeros(t.shape, dtype=np.float64)
        return entry.value()

    def rows(self, t: Tensor) -> _RowGrad:
        """``t``'s gradient as (sorted unique row indices, summed rows).

        A tensor the loss never touched has no rows.  A gradient with a dense
        part touches every row: it is ``(arange(n), wrt(t))``.  A gradient
        made of row parts alone has the rows they name, and no dense array
        is built.  Each row's bits equal the same row of ``wrt(t)``.
        """
        entry = self._entry(t)
        if entry is None:
            return _RowGrad(np.empty(0, dtype=np.intp), np.empty((0,) + t.shape[1:]))
        if entry.dense is not None:
            return _RowGrad(np.arange(t.shape[0]), entry.value())
        return entry.unique_rows()

    def __contains__(self, t: Tensor) -> bool:
        return id(t) in self._store


class Tape:
    """Wengert list: primitives recorded in execution (topological) order.

    Use one tape per training step::

        with Tape() as tape:
            loss = model_loss(...)
        grads = tape.backward(loss)

    ``backward`` runs once per tape: it frees the nodes as it walks them.
    Tapes are single-threaded; independent tapes on different threads do
    not share state (the active-tape stack is thread-local).
    """

    def __init__(self):
        self._nodes: list[_Node | None] = []
        self._spent = False

    def __enter__(self) -> "Tape":
        _tape_stack().append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        popped = _tape_stack().pop()
        assert popped is self

    def __len__(self) -> int:
        """The number of recorded nodes, before and after ``backward``."""
        return len(self._nodes)

    def backward(self, loss: Tensor) -> Gradients:
        """Accumulate d(loss)/d(leaf) for every leaf the loss depends on.

        Visits each node exactly once, in reverse recording order, and frees
        as it goes: once a node's backward has run, the tape drops the node,
        and with it the forward arrays its backward closed over; once the
        node that made a tensor has read that tensor's gradient, the
        gradient is dropped.  Only leaf gradients are returned; reading a
        dropped one from them raises ``RuntimeError``.  Each gradient is
        checked for finiteness once: as the node that made its tensor reads
        it, or after the last node for a leaf.  A second call raises
        ``RuntimeError``, since the nodes it would walk are gone.
        """
        if self._spent:
            raise RuntimeError("backward already ran on this tape and freed its nodes; "
                               "record a new tape")
        if loss.size != 1:
            raise ShapeError(f"backward needs a scalar loss, got shape {loss.shape}")
        self._spent = True
        store = {id(loss): _Accumulator(loss)}
        store[id(loss)].dense = np.ones(loss.shape, dtype=np.float64)
        freed: dict[int, weakref.ref] = {}
        nodes = self._nodes
        for i in range(len(nodes) - 1, -1, -1):
            node, nodes[i] = nodes[i], None
            entry = store.pop(id(node.out), None)
            if entry is None:
                continue
            freed[id(node.out)] = weakref.ref(node.out)
            grad = entry.value()
            _check_finite("backward", grad)
            for t, g in zip(node.inputs, node.backward_fn(grad)):
                if g is None or not t.requires_grad:
                    continue
                if id(t) not in store:
                    store[id(t)] = _Accumulator(t)
                store[id(t)].add(g)
        for entry in store.values():
            entry.check_leaf()
        return Gradients(store, freed)


# Primitives whose output is finite whenever their inputs are: nothing to
# check.  The first four only move values; ``leaky_relu`` scales by a slope in
# (0, 1), ``sigmoid`` lies in [0, 1], and the softmaxes divide max-subtracted
# exponentials by a sum of at least 1.
_UNCHECKED = frozenset({"gather_rows", "concat", "reshape", "transpose",
                        "leaky_relu", "sigmoid", "softmax", "segment_softmax"})


def _apply(name: str, out_data: np.ndarray, inputs: tuple[Tensor, ...],
           backward_fn: Callable[[np.ndarray], tuple]) -> Tensor:
    """Wrap ``out_data`` as primitive ``name``'s output; record it when a tape is active.

    The output is checked for finiteness under ``name``, unless the
    primitive is one of ``_UNCHECKED``.
    """
    if name not in _UNCHECKED:
        _check_finite(name, out_data)
    return node(out_data, inputs, backward_fn)


def node(out_data: np.ndarray, inputs: tuple[Tensor, ...],
         backward_fn: Callable[[np.ndarray], tuple]) -> Tensor:
    """Wrap ``out_data``, which the caller has checked, as one node over ``inputs``.

    ``backward_fn`` maps the output's gradient to one gradient (or ``None``)
    per input, dense or a ``_RowGrad``.  It is recorded when a tape is active
    and an input requires gradients.
    """
    requires = any(t.requires_grad for t in inputs)
    out = _wrap(np.asarray(out_data, dtype=np.float64), requires)
    if requires:
        tape = active_tape()
        if tape is not None:
            tape._nodes.append(_Node(out, inputs, backward_fn))
    return out


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcast gradient back down to ``shape``."""
    if grad.shape == shape:
        return grad
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = a.data + b.data

    def backward(g):
        return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)

    return _apply("add", out, (a, b), backward)


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = a.data - b.data

    def backward(g):
        return _unbroadcast(g, a.shape), _unbroadcast(-g, b.shape)

    return _apply("sub", out, (a, b), backward)


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = a.data * b.data

    def backward(g):
        return (_unbroadcast(g * b.data, a.shape) if a.requires_grad else None,
                _unbroadcast(g * a.data, b.shape) if b.requires_grad else None)

    return _apply("mul", out, (a, b), backward)


def matmul(a, b) -> Tensor:
    """Matrix product over the last two axes, broadcasting leading axes."""
    a, b = as_tensor(a), as_tensor(b)
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ShapeError(f"matmul needs operands of 2 or more axes, got {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul inner dimensions disagree: {a.shape} vs {b.shape}")
    out = a.data @ b.data

    def backward(g):
        da = _unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.shape) if a.requires_grad else None
        db = _unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.shape) if b.requires_grad else None
        return da, db

    return _apply("matmul", out, (a, b), backward)


def transpose(a, axes: Sequence[int] | None = None) -> Tensor:
    """Permute axes as numpy does; by default reverse them."""
    a = as_tensor(a)
    inverse = None if axes is None else np.argsort(axes)

    def backward(g):
        return (g.transpose(inverse),)

    return _apply("transpose", a.data.transpose(axes), (a,), backward)


def reshape(a, shape: Sequence[int]) -> Tensor:
    a = as_tensor(a)
    out = a.data.reshape(tuple(shape))

    def backward(g):
        return (g.reshape(a.shape),)

    return _apply("reshape", out, (a,), backward)


def gather_rows(a, indices: Sequence[int]) -> Tensor:
    """Select rows of a 2-D tensor; backward hands back a row-sparse gradient."""
    a = as_tensor(a)
    if a.data.ndim != 2:
        raise ShapeError(f"gather_rows needs a 2-D tensor, got {a.shape}")
    idx = np.asarray(list(indices), dtype=np.intp)
    if idx.size and (idx.min() < 0 or idx.max() >= a.shape[0]):
        raise ShapeError(f"gather_rows index out of range for {a.shape[0]} rows")
    out = a.data[idx]

    def backward(g):
        return (_RowGrad(idx, g),)

    return _apply("gather_rows", out, (a,), backward)


def _scatter_add_rows(rows: np.ndarray, idx: np.ndarray, n: int) -> np.ndarray:
    """(n, w) array whose row ``r`` sums ``rows[m]`` over every ``idx[m] == r``.

    One ``bincount`` over flattened (row, column) cells: it adds in input
    order like ``np.add.at``, so the bits match, at a fraction of the cost.
    """
    width = rows.shape[1]
    cells = (idx[:, None] * width + np.arange(width)).ravel()
    return np.bincount(cells, weights=rows.ravel(), minlength=n * width).reshape(n, width)


def _segment_index(a: Tensor, segment_ids: Sequence[int], num_segments: int,
                   name: str) -> np.ndarray:
    if a.data.ndim != 2:
        raise ShapeError(f"{name} needs a 2-D tensor, got {a.shape}")
    seg = np.asarray(segment_ids, dtype=np.intp).reshape(-1)
    if seg.shape != (a.shape[0],):
        raise ShapeError(f"{name} got {seg.size} segment ids for {a.shape[0]} rows")
    if seg.size and (seg.min() < 0 or seg.max() >= num_segments):
        raise ShapeError(f"{name} segment id outside [0, {num_segments})")
    return seg


def segment_sum(a, segment_ids: Sequence[int], num_segments: int) -> Tensor:
    """Sum the rows of a 2-D tensor by segment: (M, w) -> (num_segments, w).

    Row ``m`` adds into output row ``segment_ids[m]``; a segment no row maps
    to is a zero row.  Backward hands each row its segment's gradient.
    """
    a = as_tensor(a)
    seg = _segment_index(a, segment_ids, num_segments, "segment_sum")
    out = _scatter_add_rows(a.data, seg, num_segments)

    def backward(g):
        return (g[seg],)

    return _apply("segment_sum", out, (a,), backward)


def segment_softmax(a, segment_ids: Sequence[int], num_segments: int) -> Tensor:
    """Softmax of each column of a 2-D tensor within each segment of rows.

    Uses per-segment max-subtraction; a one-row segment gets exactly 1.
    """
    a = as_tensor(a)
    seg = _segment_index(a, segment_ids, num_segments, "segment_softmax")
    peak = np.full((num_segments, a.shape[1]), -np.inf)
    np.maximum.at(peak, seg, a.data)
    ex = np.exp(a.data - peak[seg])
    out = ex / _scatter_add_rows(ex, seg, num_segments)[seg]

    def backward(g):
        inner = _scatter_add_rows(g * out, seg, num_segments)[seg]
        return (out * (g - inner),)

    return _apply("segment_softmax", out, (a,), backward)


def edge_scores(src_proj, tgt_proj, theta_e, attn, src: np.ndarray, dst: np.ndarray | None,
                edge_type: np.ndarray, slope: float) -> Tensor:
    """GATv2 edge scores ``a_kᵀ LeakyReLU(src_proj[src] + tgt_proj[dst] + Θe·e)``: (E, H).

    ``src_proj`` and ``tgt_proj`` are (N, H·d) node rows, ``theta_e`` is
    (H, d, C) and ``attn`` is (H, d, 1); head ``k`` owns columns
    ``k·d:(k+1)·d``.  Edge ``m``'s ``e`` is the one-hot vector of class
    ``edge_type[m]``, or zero for type ``C``, so ``Θe·e`` is a column of Θe.
    With ``dst=None``, ``tgt_proj`` already holds one (E, H·d) row per edge
    and gets a dense gradient.  The pre-activation is one buffer built with
    in-place adds, and it is all the tape keeps: the kink mask is made in
    backward only.  Backward hands one gradient buffer to the source and the
    target rows, row-sparse for a node table, and its product with the
    one-hot rows to Θe.
    """
    src_proj, tgt_proj, theta_e, attn = (as_tensor(t) for t in
                                         (src_proj, tgt_proj, theta_e, attn))
    if attn.data.ndim != 3 or attn.shape[2] != 1:
        raise ShapeError(f"edge_scores needs an (H, d, 1) scorer, got {attn.shape}")
    heads, d = attn.shape[:2]
    src, edge_type = np.asarray(src, dtype=np.intp), np.asarray(edge_type, dtype=np.intp)
    n_edges, width = len(src), heads * d
    n_dst = n_edges if dst is None else len(dst)
    if (src_proj.data.ndim != 2 or src_proj.shape[1] != width
            or tgt_proj.data.ndim != 2 or tgt_proj.shape[1] != width
            or theta_e.data.ndim != 3 or theta_e.shape[:2] != (heads, d)
            or n_dst != n_edges or edge_type.shape != (n_edges,)
            or (dst is None and tgt_proj.shape[0] != n_edges)):
        raise ShapeError(f"edge_scores got node rows {src_proj.shape} and {tgt_proj.shape}, "
                         f"edge weights {theta_e.shape} and {n_edges}/{n_dst} endpoints "
                         f"and {edge_type.shape} edge types for width {width}")
    n_types = theta_e.shape[2]
    ends = [(src, src_proj.shape[0], "endpoint"), (edge_type, n_types + 1, "edge type")]
    if dst is not None:
        dst = np.asarray(dst, dtype=np.intp)
        ends.append((dst, tgt_proj.shape[0], "endpoint"))
    for idx, bound, what in ends:
        if n_edges and (idx.min() < 0 or idx.max() >= bound):
            raise ShapeError(f"edge_scores {what} outside [0, {bound})")
    # Row c is Θe's column c across all heads; row C, the zero vector.
    columns = np.zeros((n_types + 1, width))
    columns[:n_types] = theta_e.data.transpose(2, 0, 1).reshape(n_types, width)
    pre = src_proj.data[src]
    if dst is None:
        pre += tgt_proj.data
        act = np.empty_like(pre)
    else:
        act = tgt_proj.data[dst]
        pre += act
    # The ids are checked, so ``clip`` never clips; it spares ``take`` a buffer.
    pre += np.take(columns, edge_type, axis=0, out=act, mode="clip")
    _check_finite("edge_scores", pre)
    np.multiply(pre, slope, out=act)
    np.maximum(act, pre, out=act)
    out = np.einsum("ekj,kj->ek", act.reshape(n_edges, heads, d), attn.data[:, :, 0])

    def backward(g):
        # The kink mask times each edge's score gradient, built in one buffer:
        # with ``pre`` it gives ``attn``'s gradient, with ``attn`` everyone else's.
        gz = np.maximum(pre >= 0.0, slope).reshape(n_edges, heads, d)
        gz *= g[:, :, None]
        d_attn = np.einsum("ekj,ekj->kj", gz, pre.reshape(n_edges, heads, d))[:, :, None]
        gz *= attn.data[:, :, 0]
        gz = gz.reshape(n_edges, width)
        one_hot = (edge_type[:, None] == np.arange(n_types)).astype(np.float64)
        d_theta = (one_hot.T @ gz).T.reshape(theta_e.shape)
        return _RowGrad(src, gz), gz if dst is None else _RowGrad(dst, gz), d_theta, d_attn

    return _apply("edge_scores", out, (src_proj, tgt_proj, theta_e, attn), backward)


def project_heads(rows, theta) -> Tensor:
    """Head ``k``'s ``theta[k]`` on its block of rows: (M, H·d_in) -> (M, H·d_out).

    ``theta`` is (H, d_out, d_in); head ``k`` reads columns ``k·d_in:(k+1)·d_in``
    and writes columns ``k·d_out:(k+1)·d_out``.  One (H, M, d_in) @
    (H, d_in, d_out) product on views of both operands, with the bits of the
    reshapes, transposes and matmul it stands for; only the product can fail
    the finiteness check, under the name ``matmul``.
    """
    rows, theta = as_tensor(rows), as_tensor(theta)
    if (theta.data.ndim != 3 or rows.data.ndim != 2
            or rows.shape[1] != theta.shape[0] * theta.shape[2]):
        raise ShapeError(f"project_heads got rows {rows.shape} for head weights {theta.shape}")
    n_rows = rows.shape[0]
    heads, d_out, _ = theta.shape
    per_head = rows.data.reshape(n_rows, heads, -1).transpose(1, 0, 2)
    weights = theta.data.transpose(0, 2, 1)
    out = (per_head @ weights).transpose(1, 0, 2).reshape(n_rows, heads * d_out)

    def backward(g):
        g_heads = g.reshape(n_rows, heads, d_out).transpose(1, 0, 2)
        d_rows = (g_heads @ np.swapaxes(weights, -1, -2)).transpose(1, 0, 2)
        d_theta = (np.swapaxes(per_head, -1, -2) @ g_heads).transpose(0, 2, 1)
        return d_rows.reshape(rows.shape), d_theta

    return _apply("matmul", out, (rows, theta), backward)


def concat(tensors: Iterable, axis: int = 0) -> Tensor:
    parts = [as_tensor(t) for t in tensors]
    if not parts:
        raise ShapeError("concat needs at least one tensor")
    out = np.concatenate([p.data for p in parts], axis=axis)
    sizes = [p.data.shape[axis] for p in parts]
    splits = np.cumsum(sizes)[:-1]

    def backward(g):
        return tuple(np.array(piece) for piece in np.split(g, splits, axis=axis))

    return _apply("concat", out, tuple(parts), backward)


def tsum(a, axis: int | None = None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    out = a.data.sum(axis=axis, keepdims=keepdims)

    def backward(g):
        if axis is None:
            return (np.broadcast_to(g, a.shape).astype(np.float64, copy=True),)
        expanded = g if keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(expanded, a.shape).astype(np.float64, copy=True),)

    return _apply("sum", out, (a,), backward)


def tmean(a, axis: int | None = None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    out = a.data.mean(axis=axis, keepdims=keepdims)
    n = a.data.size if axis is None else a.data.shape[axis]

    def backward(g):
        if axis is None:
            return (np.broadcast_to(g / n, a.shape).astype(np.float64, copy=True),)
        expanded = g if keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(expanded / n, a.shape).astype(np.float64, copy=True),)

    return _apply("mean", out, (a,), backward)


def leaky_relu(a, slope: float = 0.2) -> Tensor:
    """Elementwise max(x, slope·x); the kink at 0 takes the positive branch."""
    a = as_tensor(a)
    if not 0.0 < slope < 1.0:
        raise ShapeError(f"leaky_relu slope must lie in (0, 1), got {slope}")
    # Selects written as maximum/product: same bits as np.where, which
    # branches per element and runs several times slower on mixed signs.
    positive = a.data >= 0.0
    out = np.maximum(a.data, slope * a.data)

    def backward(g):
        return (g * np.maximum(positive, slope),)

    return _apply("leaky_relu", out, (a,), backward)


def sigmoid(a) -> Tensor:
    a = as_tensor(a)
    x = a.data
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)

    def backward(g):
        return (g * out * (1.0 - out),)

    return _apply("sigmoid", out, (a,), backward)


def softmax(a, axis: int = -1) -> Tensor:
    """Normalized exponentials along ``axis``, computed with max-subtraction."""
    a = as_tensor(a)
    if a.data.ndim == 0 or a.data.shape[axis] == 0:
        raise ShapeError(f"softmax over an empty axis (shape {a.shape}, axis {axis})")
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    ex = np.exp(shifted)
    out = ex / ex.sum(axis=axis, keepdims=True)

    def backward(g):
        inner = (g * out).sum(axis=axis, keepdims=True)
        return (out * (g - inner),)

    return _apply("softmax", out, (a,), backward)


def cross_entropy(logits, labels: Sequence[int],
                  class_weights: Sequence[float] | None = None) -> Tensor:
    """Mean negative log-softmax of the true class over a batch.

    ``logits`` is (B, C); ``labels`` holds B class indices.  With
    ``class_weights`` the per-example losses are weighted by the true
    class's weight and normalized by the total weight in the batch.
    """
    logits = as_tensor(logits)
    if logits.data.ndim != 2:
        raise ShapeError(f"cross_entropy expects (batch, classes) logits, got {logits.shape}")
    batch, n_classes = logits.shape
    idx = list(labels)
    if len(idx) != batch:
        raise ShapeError(f"cross_entropy got {len(idx)} labels for batch size {batch}")
    for pos, lab in enumerate(idx):
        if not 0 <= int(lab) < n_classes:
            raise ShapeError(
                f"cross_entropy label {lab} at position {pos} outside [0, {n_classes})")
    idx_arr = np.asarray(idx, dtype=np.intp)

    shifted = logits.data - logits.data.max(axis=1, keepdims=True)
    log_norm = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    log_probs = shifted - log_norm
    probs = np.exp(log_probs)

    if class_weights is None:
        weights = np.ones(batch, dtype=np.float64)
    else:
        cw = np.asarray(list(class_weights), dtype=np.float64)
        if cw.shape != (n_classes,):
            raise ShapeError(f"class_weights must have length {n_classes}, got {cw.shape}")
        weights = cw[idx_arr]
    total = weights.sum()
    per_example = -log_probs[np.arange(batch), idx_arr]
    out = np.asarray((weights * per_example).sum() / total)

    def backward(g):
        one_hot = np.zeros((batch, n_classes), dtype=np.float64)
        one_hot[np.arange(batch), idx_arr] = 1.0
        grad = (probs - one_hot) * (weights / total)[:, None]
        return (g * grad,)

    return _apply("cross_entropy", out, (logits,), backward)


def zeros(shape: Sequence[int]) -> Tensor:
    return Tensor(np.zeros(tuple(shape), dtype=np.float64))
