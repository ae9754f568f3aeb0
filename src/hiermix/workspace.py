"""Buffers that one thread's likelihood evaluations reuse from chunk
to chunk and call to call, so that they stop asking the system for
fresh memory (see ``likelihood`` and ``predictor``).
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["Workspace"]


class Workspace:
    """Reusable arrays for the evaluations of one thread.

    ``take`` hands out the arrays of one chunk in order of request: the
    i-th request after ``reset`` always gets the i-th buffer, grown only
    when a request is larger than any before it. The evaluation of a
    chunk makes the same requests in the same order every time, so after
    the first chunk of the largest shape nothing is allocated, and the
    arrays of one chunk never share memory. ``reset`` starts the next
    chunk: nothing taken before it may still be read. ``named`` arrays
    are kept by key and outlive ``reset``. Every array is a C-contiguous
    view at the start of a flat buffer.
    """

    def __init__(self):
        self._slots: list[list] = []  # [flat buffer, shape, dtype, view]
        self._next = 0
        self._named: dict = {}

    def reset(self) -> None:
        self._next = 0

    def take(self, shape: tuple, dtype=float) -> np.ndarray:
        i = self._next
        self._next = i + 1
        if i == len(self._slots):
            self._slots.append([np.empty(0, dtype), None, None, None])
        slot = self._slots[i]
        if slot[1] == shape and slot[2] is dtype:
            return slot[3]
        return _view(slot, shape, dtype)

    def named(self, key, shape: tuple, dtype=float) -> np.ndarray:
        slot = self._named.get(key)
        if slot is None:
            slot = self._named[key] = [np.empty(0, dtype), None, None, None]
        elif slot[1] == shape and slot[2] is dtype:
            return slot[3]
        return _view(slot, shape, dtype)


def _view(slot: list, shape: tuple, dtype) -> np.ndarray:
    """A new array of ``shape`` at the start of the slot's buffer, which
    is replaced when it is too small or of another dtype.
    """
    size = math.prod(shape)
    if slot[0].size < size or slot[0].dtype != dtype:
        slot[0] = np.empty(size, dtype)
    slot[1:] = shape, dtype, slot[0][:size].reshape(shape)
    return slot[3]
