"""Columnar (struct-of-arrays) storage for the event scheduler's hot state.

One slotted :class:`~repro.mqtt.messages.DeliveryRecord` object per delivery
was the dominant cost of the event kernel at fleet scale (ROADMAP item 1).
The scheduler now keeps every in-flight delivery in the preallocated numpy
columns below, indexed by a *slot* that travels through the heap as a plain
``int``; ``DeliveryRecord`` remains the public façade and is materialized
from the columns only on cold paths (``pending_deliveries``, cancel
predicates, bare delivery targets).

Two tables live here:

* :class:`DeliveryColumns` — per-slot delivery state.  Numeric fields
  (``deliver_at``, ``sequence``, the pre-clamp ``unclamped`` time, effective
  QoS, interned sender/receiver/topic ids) are numpy columns; object fields
  (message, delivery target, matched subscription filter) are plain Python
  lists.  Slots are recycled through a freelist, so steady-state traffic
  performs no per-delivery allocation.
* :class:`PairTails` — the per-connection FIFO clamp state: one growable
  float64 tail per ``(sender, receiver)`` pair (interned to a dense pair id),
  initialized to ``-inf`` so "no tail" needs no membership test and a whole
  fan-out's tails can be gathered/updated with one vectorized index.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.utils.soa import grow

__all__ = ["DeliveryColumns", "PairTails", "NO_UNCLAMPED"]

#: Column sentinel for "this delivery was never FIFO-clamped" — NaN never
#: compares equal to a real deliver_at, and ``math.isnan`` is the cheapest
#: "is there a remembered pre-clamp time?" test.
NO_UNCLAMPED = math.nan

_INITIAL_CAPACITY = 1024


class DeliveryColumns:
    """Growable struct-of-arrays table of in-flight deliveries, keyed by slot."""

    __slots__ = (
        "deliver_at",
        "unclamped",
        "sequence",
        "effective_qos",
        "sender",
        "receiver",
        "topic",
        "message",
        "target",
        "sub_filter",
        "_free",
        "_capacity",
        "live",
    )

    def __init__(self, capacity: int = _INITIAL_CAPACITY) -> None:
        capacity = max(int(capacity), 16)
        self.deliver_at = np.empty(capacity, dtype=np.float64)
        self.unclamped = np.empty(capacity, dtype=np.float64)
        self.sequence = np.empty(capacity, dtype=np.int64)
        self.effective_qos = np.empty(capacity, dtype=np.int64)
        self.sender = np.empty(capacity, dtype=np.int64)
        self.receiver = np.empty(capacity, dtype=np.int64)
        self.topic = np.empty(capacity, dtype=np.int64)
        self.message: List[object] = [None] * capacity
        self.target: List[object] = [None] * capacity
        self.sub_filter: List[Optional[str]] = [None] * capacity
        # Freelist of recycled slots (LIFO keeps the hot slots cache-warm).
        self._free: List[int] = list(range(capacity - 1, -1, -1))
        self._capacity = capacity
        self.live = 0

    @property
    def capacity(self) -> int:
        """Allocated slots (live + free)."""
        return self._capacity

    def _grow(self) -> None:
        old = self._capacity
        new = old * 2
        self.deliver_at = grow(self.deliver_at, new)
        self.unclamped = grow(self.unclamped, new)
        self.sequence = grow(self.sequence, new)
        self.effective_qos = grow(self.effective_qos, new)
        self.sender = grow(self.sender, new)
        self.receiver = grow(self.receiver, new)
        self.topic = grow(self.topic, new)
        pad = [None] * (new - old)
        self.message.extend(pad)
        self.target.extend(pad)
        self.sub_filter.extend(pad)
        self._free.extend(range(new - 1, old - 1, -1))
        self._capacity = new

    def alloc(
        self,
        message: object,
        target: object,
        sub_filter: Optional[str],
        deliver_at: float,
        unclamped: float,
        sequence: int,
        effective_qos: int,
        sender: int,
        receiver: int,
        topic: int,
    ) -> int:
        """Claim a slot and populate every column; returns the slot index."""
        free = self._free
        if not free:
            self._grow()
            free = self._free
        slot = free.pop()
        self.deliver_at[slot] = deliver_at
        self.unclamped[slot] = unclamped
        self.sequence[slot] = sequence
        self.effective_qos[slot] = effective_qos
        self.sender[slot] = sender
        self.receiver[slot] = receiver
        self.topic[slot] = topic
        self.message[slot] = message
        self.target[slot] = target
        self.sub_filter[slot] = sub_filter
        self.live += 1
        return slot

    def free(self, slot: int) -> None:
        """Release a slot back to the freelist, dropping its object refs."""
        self.message[slot] = None
        self.target[slot] = None
        self.sub_filter[slot] = None
        self._free.append(slot)
        self.live -= 1


class PairTails:
    """Dense FIFO-clamp tails: latest scheduled ``deliver_at`` per connection.

    ``(sender id, receiver id)`` int pairs are interned to a dense pair slot;
    the tail array starts at ``-inf`` (no in-flight predecessor), so the
    scalar clamp is a single compare and the vectorized fan-out clamp is a
    gather / ``maximum`` / scatter over one index array.
    """

    __slots__ = ("_index", "tails", "_capacity")

    def __init__(self, capacity: int = _INITIAL_CAPACITY) -> None:
        capacity = max(int(capacity), 16)
        self._index: Dict[Tuple[int, int], int] = {}
        self.tails = np.full(capacity, -math.inf, dtype=np.float64)
        self._capacity = capacity

    def slot(self, sender: int, receiver: int) -> int:
        """The pair slot for a connection, allocated on first use."""
        key = (sender, receiver)
        index = self._index.get(key)
        if index is None:
            index = len(self._index)
            self._index[key] = index
            if index >= self._capacity:
                self.tails = grow(self.tails, index + 1, fill=-math.inf)
                self._capacity = len(self.tails)
        return index

    def slots_for(self, sender: int, receivers: np.ndarray) -> np.ndarray:
        """Pair slots for one sender against many receivers (int64 array)."""
        slot = self.slot
        return np.array([slot(sender, int(r)) for r in receivers], dtype=np.int64)

    def clear_pair(self, sender: int, receiver: int) -> None:
        """Reset a connection's tail (its last in-flight delivery was cancelled)."""
        index = self._index.get((sender, receiver))
        if index is not None:
            self.tails[index] = -math.inf
