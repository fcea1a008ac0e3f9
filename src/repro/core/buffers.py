"""Serial flit FIFOs.

The paper's buffers are "connected serially, thus eliminating VCs and the
corresponding virtual-channel allocator" — a plain FIFO per input port.
"""

from __future__ import annotations

from collections import deque
from typing import Iterator, Optional

from ..sim.flit import Flit


class FlitFIFO:
    """A bounded FIFO of flits (one router input buffer)."""

    __slots__ = ("depth", "_q")

    def __init__(self, depth: int) -> None:
        if depth < 1:
            raise ValueError("FIFO depth must be >= 1")
        self.depth = depth
        self._q: deque = deque()

    def __len__(self) -> int:
        return len(self._q)

    def __iter__(self) -> Iterator[Flit]:
        return iter(self._q)

    @property
    def free_slots(self) -> int:
        return self.depth - len(self._q)

    @property
    def full(self) -> bool:
        return len(self._q) >= self.depth

    def push(self, flit: Flit) -> None:
        """Append at the tail; overflow is a protocol violation (the sender
        must have checked for space or chosen the deflection fallback)."""
        if len(self._q) >= self.depth:
            raise RuntimeError("FIFO overflow: flow-control protocol violated")
        self._q.append(flit)

    def force_push(self, flit: Flit) -> None:
        """Append even beyond ``depth``.

        Used only for the transient overfill while an undetected primary
        crossbar fault forces every incoming flit into the buffer (the
        physical analogue is the input latch holding the flit); normal
        operation never calls this.
        """
        self._q.append(flit)

    def head(self) -> Optional[Flit]:
        """The flit eligible for switch allocation, or None when empty."""
        return self._q[0] if self._q else None

    def pop(self) -> Flit:
        """Remove and return the head flit."""
        return self._q.popleft()

    # ------------------------------------------------------------------
    # checkpointing
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        return {"flits": [f.to_dict() for f in self._q]}

    def load_state_dict(self, state: dict) -> None:
        """Restore the queue contents in order.  Appends directly so a
        snapshot taken during a transient ``force_push`` overfill restores
        beyond ``depth`` exactly as it was."""
        self._q.clear()
        for d in state["flits"]:
            self._q.append(Flit.from_dict(d))
