"""Per-device memory accounting (the tracemalloc substitute).

The accountant tracks how many bytes each device currently has allocated to
buffered model payloads, the high-water mark, and any overflow events where a
device was asked to hold more than its capacity.  The SDFLMQ client logic
charges allocations when peer models arrive for aggregation and releases them
once the aggregate has been produced, so the high-water marks directly show
how hierarchical aggregation spreads memory load (one of the paper's claimed
benefits: "potentially save unnecessary memory allocation").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.utils.validation import require_positive

__all__ = ["ResourceAccountant", "MemoryOverflowEvent"]


@dataclass(frozen=True)
class MemoryOverflowEvent:
    """One instance of a device exceeding its memory capacity."""

    device_id: str
    requested_bytes: int
    capacity_bytes: int
    in_use_bytes: int
    timestamp: float


@dataclass
class _DeviceMemory:
    capacity_bytes: int
    in_use_bytes: int = 0
    high_water_bytes: int = 0
    allocations: int = 0
    releases: int = 0


class ResourceAccountant:
    """Tracks buffered-model memory per device."""

    def __init__(self) -> None:
        self._devices: Dict[str, _DeviceMemory] = {}
        self.overflow_events: List[MemoryOverflowEvent] = []

    def register_device(self, device_id: str, capacity_bytes: int) -> None:
        """Register (or resize) a device's memory capacity."""
        require_positive(capacity_bytes, "capacity_bytes")
        existing = self._devices.get(device_id)
        if existing is None:
            self._devices[device_id] = _DeviceMemory(capacity_bytes=int(capacity_bytes))
        else:
            existing.capacity_bytes = int(capacity_bytes)

    def _require(self, device_id: str) -> _DeviceMemory:
        device = self._devices.get(device_id)
        if device is None:
            raise KeyError(f"device {device_id!r} is not registered with the resource accountant")
        return device

    def allocate(self, device_id: str, num_bytes: int, timestamp: float = 0.0) -> bool:
        """Charge ``num_bytes`` to ``device_id``.

        Returns ``True`` if the allocation fits within capacity, ``False`` if
        it overflows (the allocation is still recorded — the simulated device
        spills to storage rather than crashing, matching the cost model).
        """
        if num_bytes < 0:
            raise ValueError("cannot allocate a negative number of bytes")
        device = self._require(device_id)
        device.in_use_bytes += int(num_bytes)
        device.allocations += 1
        device.high_water_bytes = max(device.high_water_bytes, device.in_use_bytes)
        if device.in_use_bytes > device.capacity_bytes:
            self.overflow_events.append(
                MemoryOverflowEvent(
                    device_id=device_id,
                    requested_bytes=int(num_bytes),
                    capacity_bytes=device.capacity_bytes,
                    in_use_bytes=device.in_use_bytes,
                    timestamp=timestamp,
                )
            )
            return False
        return True

    def release(self, device_id: str, num_bytes: int) -> None:
        """Release ``num_bytes`` previously charged to ``device_id``."""
        if num_bytes < 0:
            raise ValueError("cannot release a negative number of bytes")
        device = self._require(device_id)
        device.in_use_bytes = max(0, device.in_use_bytes - int(num_bytes))
        device.releases += 1

    # -------------------------------------------------------------- inspection

    def in_use(self, device_id: str) -> int:
        """Bytes currently charged to ``device_id``."""
        return self._require(device_id).in_use_bytes

    def high_water(self, device_id: str) -> int:
        """Peak bytes ever charged to ``device_id``."""
        return self._require(device_id).high_water_bytes

    def overflow_count(self, device_id: str | None = None) -> int:
        """Number of overflow events (for one device or in total)."""
        if device_id is None:
            return len(self.overflow_events)
        return sum(1 for event in self.overflow_events if event.device_id == device_id)

    def high_water_by_device(self) -> Dict[str, int]:
        """High-water marks for every registered device."""
        return {device_id: memory.high_water_bytes for device_id, memory in self._devices.items()}
