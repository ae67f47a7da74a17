"""Tests for the struct-of-arrays building blocks of the event kernel.

``utils/soa.py`` (``grow``, ``StringTable``) and ``runtime/columns.py``
(``DeliveryColumns``, ``PairTails``) start small and grow on demand; the
registry fleets never outgrow the initial capacity, so the growth paths are
pinned here directly.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.runtime.columns import NO_UNCLAMPED, DeliveryColumns, PairTails
from repro.utils.soa import StringTable, grow


class TestGrow:
    @pytest.mark.parametrize("dtype", [np.float64, np.int64, np.int8])
    def test_prefix_is_copied(self, dtype):
        column = np.arange(20).astype(dtype)
        grown = grow(column, 21)
        assert grown.dtype == column.dtype
        assert np.array_equal(grown[:20], column)

    @pytest.mark.parametrize(
        "length, requested, expected",
        [(0, 1, 16), (10, 5, 20), (10, 50, 50), (1024, 1025, 2048), (8, 8, 16)],
    )
    def test_capacity_doubles_at_least(self, length, requested, expected):
        assert len(grow(np.zeros(length), requested)) == expected

    def test_fill_initializes_only_the_tail(self):
        grown = grow(np.array([1.0, 2.0]), 4, fill=-math.inf)
        assert grown[:2].tolist() == [1.0, 2.0]
        assert np.all(grown[2:] == -math.inf)

    def test_returns_a_new_allocation(self):
        column = np.zeros(4)
        grown = grow(column, 8)
        grown[0] = 1.0
        assert column[0] == 0.0


class TestStringTable:
    def test_ids_are_dense_and_stable(self):
        table = StringTable()
        assert [table.intern(v) for v in ("a", "b", "a", "c", "b")] == [0, 1, 0, 2, 1]

    def test_value_inverts_intern(self):
        table = StringTable()
        for value in ("client_000", "client_001", "sdflmq/x"):
            assert table.value(table.intern(value)) == value

    def test_none_is_internable(self):
        table = StringTable()
        table.intern("x")
        index = table.intern(None)
        assert index == 1 and table.value(index) is None
        assert table.intern(None) == index


def _alloc(columns: DeliveryColumns, i: int) -> int:
    return columns.alloc(
        message=f"m{i}", target=f"t{i}", sub_filter=f"f{i}", deliver_at=float(i),
        unclamped=NO_UNCLAMPED, sequence=i, effective_qos=i % 3,
        sender=i, receiver=i + 1, topic=i + 2,
    )


class TestDeliveryColumns:
    def test_capacity_has_a_floor(self):
        assert DeliveryColumns(capacity=1).capacity == 16

    @pytest.mark.parametrize("extra", [-1, 0, 1, 16, 40])
    def test_growth_keeps_every_live_slot(self, extra):
        columns = DeliveryColumns(capacity=16)
        count = 16 + extra
        slots = [_alloc(columns, i) for i in range(count)]
        assert len(set(slots)) == count
        assert columns.live == count
        assert columns.capacity >= count
        assert columns.capacity == (16 if count <= 16 else 16 * 2 ** math.ceil(math.log2(count / 16)))
        for i, slot in enumerate(slots):
            assert columns.deliver_at[slot] == float(i)
            assert columns.sequence[slot] == i
            assert columns.effective_qos[slot] == i % 3
            assert (columns.sender[slot], columns.receiver[slot], columns.topic[slot]) == (i, i + 1, i + 2)
            assert (columns.message[slot], columns.target[slot], columns.sub_filter[slot]) == (
                f"m{i}", f"t{i}", f"f{i}")
            assert math.isnan(columns.unclamped[slot])

    def test_object_columns_stay_as_long_as_the_numeric_ones(self):
        columns = DeliveryColumns(capacity=16)
        for i in range(33):
            _alloc(columns, i)
        assert len(columns.message) == len(columns.target) == len(columns.sub_filter)
        assert len(columns.message) == len(columns.deliver_at) == columns.capacity

    def test_free_recycles_the_last_released_slot_first(self):
        columns = DeliveryColumns(capacity=16)
        first, second = _alloc(columns, 0), _alloc(columns, 1)
        columns.free(first)
        columns.free(second)
        assert _alloc(columns, 2) == second
        assert _alloc(columns, 3) == first

    def test_free_drops_object_references(self):
        columns = DeliveryColumns(capacity=16)
        slot = _alloc(columns, 0)
        columns.free(slot)
        assert columns.live == 0
        assert (columns.message[slot], columns.target[slot], columns.sub_filter[slot]) == (None,) * 3

    def test_steady_alloc_free_never_grows(self):
        columns = DeliveryColumns(capacity=16)
        for i in range(1000):
            columns.free(_alloc(columns, i))
        assert columns.capacity == 16 and columns.live == 0


class TestPairTails:
    def test_new_pair_has_no_tail(self):
        pairs = PairTails(capacity=16)
        assert pairs.tails[pairs.slot(3, 4)] == -math.inf

    def test_pair_slots_are_dense_and_directional(self):
        pairs = PairTails(capacity=16)
        assert [pairs.slot(0, 1), pairs.slot(1, 0), pairs.slot(0, 1), pairs.slot(0, 2)] == [0, 1, 0, 2]

    @pytest.mark.parametrize("count", [16, 17, 100])
    def test_growth_keeps_tails_and_fills_new_ones_empty(self, count):
        pairs = PairTails(capacity=16)
        for receiver in range(count):
            slot = pairs.slot(0, receiver)  # may replace pairs.tails
            pairs.tails[slot] = float(receiver)
        assert len(pairs.tails) >= count
        assert pairs.tails[:count].tolist() == [float(r) for r in range(count)]
        assert np.all(pairs.tails[count:] == -math.inf)

    def test_slots_for_matches_slot(self):
        pairs = PairTails(capacity=16)
        pairs.slot(9, 9)
        receivers = np.array([5, 6, 7], dtype=np.int64)
        slots = pairs.slots_for(2, receivers)
        assert slots.dtype == np.int64
        assert slots.tolist() == [pairs.slot(2, r) for r in (5, 6, 7)]

    def test_clear_pair_resets_only_that_tail(self):
        pairs = PairTails(capacity=16)
        a, b = pairs.slot(0, 1), pairs.slot(0, 2)
        pairs.tails[a] = pairs.tails[b] = 5.0
        pairs.clear_pair(0, 1)
        assert pairs.tails[a] == -math.inf and pairs.tails[b] == 5.0

    def test_clear_unknown_pair_allocates_nothing(self):
        pairs = PairTails(capacity=16)
        pairs.clear_pair(7, 8)
        assert pairs.slot(0, 1) == 0
