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
    i-th request after ``reset`` gets the i-th buffer, a flat byte buffer
    grown only when a request needs more bytes than any before it and
    viewed, C-contiguous from its start, in the dtype asked for. A chunk's
    evaluation makes the same requests in the same order every time, so
    after the first chunk of the largest shape nothing is allocated, and
    the arrays of one chunk never share memory. ``reset(keep)`` starts the
    next chunk: of the arrays taken before it only the first ``keep`` may
    still be read, and the next request gets the buffer after them.
    """

    def __init__(self):
        self._slots: list[list] = []  # [flat byte buffer, shape, dtype, view]
        self._next = 0

    def reset(self, keep: int = 0) -> None:
        self._next = keep

    def take(self, shape: tuple, dtype=float) -> np.ndarray:
        i = self._next
        self._next = i + 1
        if i == len(self._slots):
            self._slots.append([np.empty(0, np.uint8), None, None, None])
        slot = self._slots[i]
        if slot[1] == shape and slot[2] is dtype:
            return slot[3]
        # a new view, on a new buffer only when the old holds too few bytes
        size = math.prod(shape) * np.dtype(dtype).itemsize
        if slot[0].size < size:
            slot[0] = np.empty(size, np.uint8)
        slot[1:] = shape, dtype, slot[0][:size].view(dtype).reshape(shape)
        return slot[3]
