"""The named device tiers, as data.

Kept apart from :mod:`repro.sim.device` (which needs numpy for fleet drift) so
that spec validation can check a tier name without importing the simulator.
"""

from __future__ import annotations

from typing import Dict

__all__ = ["DEVICE_TIERS"]

#: Named device tiers used to compose heterogeneous fleets.  Numbers are
#: loosely calibrated to "edge server", "laptop", "smartphone" and
#: "Raspberry-Pi-class" devices; the absolute values matter less than their
#: ratios, which drive who should host aggregation.
DEVICE_TIERS: Dict[str, Dict[str, float]] = {
    "server": {
        "compute_speed": 4.0,
        "memory_bytes": 8 * 1024**3,
        "bandwidth_bps": 125e6,
        "latency_s": 0.002,
    },
    "laptop": {
        "compute_speed": 1.0,
        "memory_bytes": 2 * 1024**3,
        "bandwidth_bps": 12.5e6,
        "latency_s": 0.005,
    },
    "phone": {
        "compute_speed": 0.4,
        "memory_bytes": 512 * 1024**2,
        "bandwidth_bps": 6.25e6,
        "latency_s": 0.015,
    },
    "rpi": {
        "compute_speed": 0.15,
        "memory_bytes": 128 * 1024**2,
        "bandwidth_bps": 3.125e6,
        "latency_s": 0.010,
    },
}
