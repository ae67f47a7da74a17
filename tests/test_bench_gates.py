"""Tests for the ``tools/bench.py --check`` regression gates.

These never run the actual benchmarks: every case drives
``check_regression`` with ``fresh_path`` pointing at a synthetic BENCH
document, so the gate arithmetic (per-metric tolerances, the derived
aggregation-throughput normalization, hard errors on missing metrics) is
pinned without any timing noise.
"""

from __future__ import annotations

import json
import os
import sys

import pytest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "tools"))

import bench  # noqa: E402  (tools/bench.py, path-injected above)


def _metrics(**overrides):
    metrics = {
        "scheduler_deliveries_per_s": 100_000.0,
        "scheduler_12k_deliveries_per_s": 500_000.0,
        "codec_encode_mb_per_s": 10_000.0,
        "codec_decode_mb_per_s": 400_000.0,
        "update_codec_encode_mb_per_s": 2_000.0,
        "update_codec_decode_mb_per_s": 3_000.0,
        "aggregation_contributions": 24,
        "aggregation_params": 1_000_064,
        "aggregation_reduce_s": 0.05,
        "obs_overhead_ratio": 1.0,
        "scheduler_rss_per_10k_clients_mb": 40.0,
    }
    metrics.update(overrides)
    return metrics


def _doc(path, metrics, schema=bench.SCHEMA):
    document = {"schema": schema, "metrics": metrics}
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle)
    return str(path)


@pytest.fixture
def baseline(tmp_path):
    return _doc(tmp_path / "baseline.json", _metrics())


def test_identical_documents_pass(tmp_path, baseline, capsys):
    fresh = _doc(tmp_path / "fresh.json", _metrics())
    assert bench.check_regression(baseline, fresh_path=fresh) == 0
    out = capsys.readouterr().out
    for name, _extract, _tol, _direction in bench.GATES:
        assert f"{name}:" in out
        assert "OK" in out


def test_drop_within_default_tolerance_passes(tmp_path, baseline):
    fresh = _doc(
        tmp_path / "fresh.json",
        _metrics(
            scheduler_deliveries_per_s=85_000.0,  # -15% vs 20% tolerance
            codec_encode_mb_per_s=5_500.0,  # -45% vs 50%
            codec_decode_mb_per_s=45_000.0,  # -89% vs 90% (latency-dominated)
        ),
    )
    assert bench.check_regression(baseline, fresh_path=fresh) == 0


def test_scheduler_regression_fails(tmp_path, baseline, capsys):
    fresh = _doc(
        tmp_path / "fresh.json", _metrics(scheduler_deliveries_per_s=50_000.0)
    )
    assert bench.check_regression(baseline, fresh_path=fresh) == 1
    assert "REGRESSION" in capsys.readouterr().out


def test_codec_regression_fails(tmp_path, baseline):
    fresh = _doc(tmp_path / "fresh.json", _metrics(codec_encode_mb_per_s=1_000.0))
    assert bench.check_regression(baseline, fresh_path=fresh) == 1


def test_update_codec_gate_catches_regressions(tmp_path, baseline):
    # -50% passes the 60% tolerance; -70% fails it.
    fine = _doc(tmp_path / "fine.json", _metrics(update_codec_encode_mb_per_s=1_000.0))
    assert bench.check_regression(baseline, fresh_path=fine) == 0
    slow = _doc(tmp_path / "slow.json", _metrics(update_codec_decode_mb_per_s=900.0))
    assert bench.check_regression(baseline, fresh_path=slow) == 1


def test_obs_overhead_gate_is_tight(tmp_path, baseline, capsys):
    # A 1% attach cost passes the 2% tolerance; a 5% cost fails it — the
    # observability layer cannot quietly grow a hot-path tax.
    fine = _doc(tmp_path / "fine.json", _metrics(obs_overhead_ratio=0.99))
    assert bench.check_regression(baseline, fresh_path=fine) == 0
    slow = _doc(tmp_path / "slow.json", _metrics(obs_overhead_ratio=0.95))
    assert bench.check_regression(baseline, fresh_path=slow) == 1
    assert "obs_overhead_ratio" in capsys.readouterr().out


def test_aggregation_throughput_normalizes_workload_size(tmp_path, baseline):
    # Quick-mode workload (8 x 100k) at the same parameters-per-second rate
    # as the full baseline (24 x 1M): a naive reduce_s gate would compare
    # 0.05 s against ~0.00167 s and always "pass"; the derived throughput
    # gate sees identical rates and passes for the right reason.
    base_rate = 24 * 1_000_064 / 0.05
    quick_reduce_s = (8 * 100_000) / base_rate
    fresh = _doc(
        tmp_path / "fresh.json",
        _metrics(
            aggregation_contributions=8,
            aggregation_params=100_000,
            aggregation_reduce_s=quick_reduce_s,
        ),
    )
    assert bench.check_regression(baseline, fresh_path=fresh) == 0

    # Same quick workload but the reduce itself got 3x slower: caught even
    # though its absolute reduce_s (0.005 s) still looks "faster" than the
    # full baseline's 0.05 s.
    slow = _doc(
        tmp_path / "slow.json",
        _metrics(
            aggregation_contributions=8,
            aggregation_params=100_000,
            aggregation_reduce_s=quick_reduce_s * 3,
        ),
    )
    assert bench.check_regression(baseline, fresh_path=slow) == 1


def test_rss_gate_is_lower_is_better(tmp_path, baseline, capsys):
    # Memory per extra 10k idle clients is a ceiling, not a floor: a big
    # *drop* must pass, a rise beyond the 50% tolerance must fail.
    leaner = _doc(
        tmp_path / "leaner.json", _metrics(scheduler_rss_per_10k_clients_mb=5.0)
    )
    assert bench.check_regression(baseline, fresh_path=leaner) == 0
    bloated = _doc(
        tmp_path / "bloated.json", _metrics(scheduler_rss_per_10k_clients_mb=65.0)
    )
    assert bench.check_regression(baseline, fresh_path=bloated) == 1
    assert "scheduler_rss_per_10k_clients_mb" in capsys.readouterr().out


def test_12k_fanout_gate_catches_regressions(tmp_path, baseline):
    # -20% passes the 25% tolerance; -40% fails it.
    fine = _doc(
        tmp_path / "fine.json", _metrics(scheduler_12k_deliveries_per_s=400_000.0)
    )
    assert bench.check_regression(baseline, fresh_path=fine) == 0
    slow = _doc(
        tmp_path / "slow.json", _metrics(scheduler_12k_deliveries_per_s=300_000.0)
    )
    assert bench.check_regression(baseline, fresh_path=slow) == 1


def test_missing_baseline_metric_is_a_hard_error(tmp_path, capsys):
    metrics = _metrics()
    del metrics["aggregation_reduce_s"]
    baseline = _doc(tmp_path / "baseline.json", metrics)
    fresh = _doc(tmp_path / "fresh.json", _metrics())
    assert bench.check_regression(baseline, fresh_path=fresh) == 2
    assert "missing gate metric" in capsys.readouterr().err


def test_missing_fresh_metric_is_a_hard_error(tmp_path, baseline, capsys):
    metrics = _metrics()
    del metrics["codec_decode_mb_per_s"]
    fresh = _doc(tmp_path / "fresh.json", metrics)
    assert bench.check_regression(baseline, fresh_path=fresh) == 2
    assert "missing gate metric" in capsys.readouterr().err


def test_unrecognized_schema_is_a_hard_error(tmp_path, baseline):
    fresh = _doc(tmp_path / "fresh.json", _metrics(), schema="other/v9")
    assert bench.check_regression(baseline, fresh_path=fresh) == 2
    bad_baseline = _doc(tmp_path / "bad.json", _metrics(), schema="other/v9")
    assert bench.check_regression(bad_baseline) == 2


def test_global_tolerance_overrides_every_gate(tmp_path, baseline):
    fresh = _doc(
        tmp_path / "fresh.json",
        _metrics(codec_decode_mb_per_s=45_000.0),  # -89%: default 90% passes
    )
    assert bench.check_regression(baseline, fresh_path=fresh) == 0
    assert bench.check_regression(baseline, tolerance=0.5, fresh_path=fresh) == 1


def test_committed_baseline_has_every_gate_metric():
    """The real BENCH_pr10.json must satisfy every gate against itself."""
    baseline_path = os.path.join(REPO_ROOT, "BENCH_pr10.json")
    assert bench.check_regression(baseline_path, fresh_path=baseline_path) == 0


def test_committed_baseline_ignores_metrics_the_fresh_run_no_longer_emits(tmp_path):
    """BENCH_pr10.json still carries shard metrics; a fresh document without
    them (what ``tools/bench.py`` emits now) gates cleanly against it."""
    baseline_path = os.path.join(REPO_ROOT, "BENCH_pr10.json")
    with open(baseline_path, "r", encoding="utf-8") as handle:
        metrics = json.load(handle)["metrics"]
    dropped = [name for name in metrics if "shard" in name or name == "fanout_rss_delta_mb"]
    assert dropped, "the committed baseline predates the shard-bench removal"
    fresh = _doc(
        tmp_path / "fresh.json",
        {name: value for name, value in metrics.items() if name not in dropped},
    )
    assert bench.check_regression(baseline_path, fresh_path=fresh) == 0
