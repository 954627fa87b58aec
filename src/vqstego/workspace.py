"""Arrays that a loop over one set of shapes reuses from call to call.

Stage 2's solve evaluates its loss and gradient tens of times on images of
one shape, with about twenty image-sized temporaries per evaluation.
Allocated afresh, their cost depends on whether the allocator hands freed
memory back to the system, to fault it in again on the next evaluation. A
`Workspace` gives each temporary one array, made on first use and written
in place after that.
"""

from __future__ import annotations

import numpy as np


def _layout(a) -> tuple:
    return (a.shape, a.strides, a.dtype) if isinstance(a, np.ndarray) else a


class Workspace:
    """Named arrays, each made on its first request and handed back on
    every later request of the same name and shape. An array holds its
    contents only until the next request of its name, so a name belongs to
    one step of one computation."""

    def __init__(self):
        self._arrays: dict = {}

    def _get(self, key, make):
        a = self._arrays.get(key)
        if a is None:
            a = self._arrays[key] = make()
        return a

    def empty(self, name: str, shape: tuple) -> np.ndarray:
        """An uninitialised C-order float64 array."""
        return self._get((name, shape), lambda: np.empty(shape))

    def zeros(self, name, shape: tuple) -> np.ndarray:
        """A C-order float64 array, zero when made: a region the caller
        never writes, such as a padding border, stays zero. The name must
        fix the region the caller writes."""
        return self._get(("zeros", name, shape), lambda: np.zeros(shape))

    def like(self, name: str, a: np.ndarray) -> np.ndarray:
        """An uninitialised array in `a`'s shape, type and memory layout."""
        return self._get((name, _layout(a)), lambda: np.empty_like(a))

    def call(self, name: str, fn, *args) -> np.ndarray:
        """`fn(*args)` for a ufunc or `np.matmul` `fn`.

        The first call with operands of these shapes and layouts allocates
        as numpy does, so the array takes the layout numpy gives the result;
        later calls write into it. An operand may be the array itself.
        """
        key = (name, *map(_layout, args))
        out = self._arrays.get(key)
        if out is None:
            out = self._arrays[key] = fn(*args)
            return out
        return fn(*args, out=out)


class _Fresh(Workspace):
    """A workspace that allocates on every request."""

    def _get(self, key, make):
        return make()

    def call(self, name: str, fn, *args) -> np.ndarray:
        return fn(*args)


# the default of every function that takes a workspace: plain allocation
FRESH = _Fresh()
