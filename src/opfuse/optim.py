"""Adam optimizer over named parameter tensors."""

from __future__ import annotations

import numpy as np

from .autodiff import Gradients, ShapeError, Tensor


class _TouchedRows:
    """Adam moments of the rows of one parameter that ever had a gradient.

    A row (the first axis) gets the next free slot the first time it has a
    gradient; ``m`` and ``v`` hold one row per slot.  A dense gradient
    touches every row, so a parameter with one holds every row in slot
    order.  The buffers grow with the touched set: their capacity at least
    doubles when it runs out, up to the row count, and the slots in use are
    copied over.  A parameter with a dense first gradient is full-size after
    its first step; a table that a batch gathers 64 rows of holds moments
    for about those rows, not for the whole table.
    """

    def __init__(self, shape: tuple[int, ...]):
        self.slot = np.full(shape[0], -1, dtype=np.intp)
        self.rows = np.empty(0, dtype=np.intp)
        self.m = np.zeros((0,) + shape[1:])
        self.v = np.zeros((0,) + shape[1:])
        # Every row is touched and row r sits in slot r, as after a dense
        # first gradient: the slots are then the parameter's own rows.
        self.in_order = False

    def add_rows(self, idx: np.ndarray) -> None:
        new = idx[self.slot[idx] < 0]
        if not new.size:
            return
        used = self.rows.size
        count = used + new.size
        if count > len(self.m):
            capacity = min(self.slot.size, max(count, 2 * len(self.m)))
            self.m = _grown(self.m, used, capacity)
            self.v = _grown(self.v, used, capacity)
        self.slot[new] = np.arange(used, count)
        self.rows = np.concatenate([self.rows, new])
        self.in_order = count == self.slot.size and np.array_equal(self.rows, np.arange(count))


def _grown(buf: np.ndarray, used: int, capacity: int) -> np.ndarray:
    """``buf`` with room for ``capacity`` slots: its first ``used`` slots, then zeros."""
    out = np.zeros((capacity,) + buf.shape[1:])
    out[:used] = buf[:used]
    return out


class Adam:
    """Adam with bias correction, β=(0.9, 0.999) and ε=1e-8.

    Parameters are updated strictly between training steps; moment state is
    keyed by parameter name.  A parameter whose every row is touched in row
    order (any parameter with a dense gradient) is stepped on its buffers as
    they are, with no scatter of the gradient and no gather of the rows.  Any
    other parameter (an embedding table a batch gathers from) has only its
    touched rows stepped.  Either way the new values are written into the
    parameter's own buffer in place (``Tensor.write_rows``): no step copies
    a parameter, so a kept reference to its buffer sees later steps.

    Every parameter is updated by one rule: on the rows it ever had a
    gradient for, and on no other.  A dense gradient touches every row; a
    row-sparse one (an embedding table) only the rows gathered.  Every
    touched row is updated at every step, with gradient 0 when the batch
    leaves it out, so its moments still decay.  A row never touched has
    m = v = 0 and gradient 0, so dense Adam would move it by exactly
    0 / (0 + ε) = 0: the result is dense Adam bit for bit.  This is not
    LazyAdam or ``SparseAdam``, which skip the decay of rows absent from a
    batch.
    """

    BETA1 = 0.9
    BETA2 = 0.999
    EPS = 1e-8

    def __init__(self, params: dict[str, Tensor], lr: float):
        for name, param in params.items():
            if not param.shape:
                raise ShapeError(f"Adam needs parameters of 1 or more axes, {name!r} has none")
        self.params = dict(params)
        self.lr = float(lr)
        self._step = 0
        self._touched: dict[str, _TouchedRows] = {}

    def step(self, grads: Gradients) -> None:
        self._step += 1
        t = self._step
        bc1 = 1.0 - self.BETA1 ** t
        bc2 = 1.0 - self.BETA2 ** t
        for name, param in self.params.items():
            self._step_rows(name, param, grads.rows(param), bc1, bc2)

    def _update(self, m: np.ndarray, v: np.ndarray, g: np.ndarray,
                bc1: float, bc2: float) -> np.ndarray:
        """Advance the moments in place and return the step to subtract.

        Each value takes the operations of ``m = β1·m + (1-β1)·g``,
        ``v = β2·v + (1-β2)·g·g`` and ``lr/bc1 · m / (sqrt(v/bc2) + ε)`` in
        that order, written into two C-ordered buffers of ``g``'s size (a
        gradient may be a strided view, and ``m`` and ``v`` are C-ordered).
        """
        tmp = np.multiply(g, 1.0 - self.BETA1, order="C")
        m *= self.BETA1
        m += tmp
        np.multiply(g, 1.0 - self.BETA2, out=tmp)
        tmp *= g
        v *= self.BETA2
        v += tmp
        step = np.multiply(m, self.lr / bc1)
        np.divide(v, bc2, out=tmp)
        np.sqrt(tmp, out=tmp)
        tmp += self.EPS
        step /= tmp
        return step

    def _step_rows(self, name: str, param: Tensor, part, bc1: float, bc2: float) -> None:
        idx, summed = part
        table = self._touched.get(name)
        if table is None:
            if not idx.size:
                return
            table = self._touched[name] = _TouchedRows(param.shape)
        table.add_rows(idx)
        count = table.rows.size
        if table.in_order and idx.size == count:
            g = summed  # sorted unique indices of every row: already in slot order
        else:
            g = np.zeros((count,) + param.shape[1:])
            g[table.slot[idx]] = summed
        step = self._update(table.m[:count], table.v[:count], g, bc1, bc2)
        rows = ... if table.in_order else table.rows
        param.write_rows(rows, np.subtract(param.data[rows], step, out=step))
