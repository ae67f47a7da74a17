"""Tests for link profiles and the network model."""

from __future__ import annotations

import numpy as np
import pytest

from repro.mqtt.network import LinkProfile, NetworkModel, PACKET_OVERHEAD_BYTES


class TestLinkProfile:
    def test_transfer_time_latency_plus_bandwidth(self):
        link = LinkProfile(latency_s=0.01, bandwidth_bps=1_000_000, jitter_s=0.0)
        expected = 0.01 + (1000 + PACKET_OVERHEAD_BYTES) / 1_000_000
        assert link.transfer_time(1000) == pytest.approx(expected)

    def test_transfer_time_monotone_in_size(self):
        link = LinkProfile()
        assert link.transfer_time(10_000) > link.transfer_time(10)

    def test_jitter_requires_rng(self):
        link = LinkProfile(jitter_s=0.01)
        base = link.transfer_time(100)  # no rng: deterministic
        with_jitter = link.transfer_time(100, np.random.default_rng(0))
        assert with_jitter >= base

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            LinkProfile(bandwidth_bps=0)
        with pytest.raises(ValueError):
            LinkProfile(loss_rate=1.0)
        with pytest.raises(ValueError):
            LinkProfile(latency_s=-1)


class TestNetworkModel:
    def test_per_client_link_override(self):
        model = NetworkModel()
        slow = LinkProfile(latency_s=0.5, bandwidth_bps=1e3)
        model.set_link("slow-client", slow)
        assert model.link_for("slow-client") is slow
        assert model.link_for("unknown") is model.default_link
        assert model.link_for(None) is model.default_link

    def test_end_to_end_includes_both_hops_and_broker(self):
        model = NetworkModel(
            default_link=LinkProfile(latency_s=0.01, bandwidth_bps=1e6),
            broker_processing_s_per_message=0.001,
        )
        total = model.end_to_end_time("a", "b", 1000)
        uplink = model.uplink_time("a", 1000)
        downlink = model.downlink_time("b", 1000)
        assert total == pytest.approx(uplink + downlink + model.broker_processing_time(1000))
        assert total > 0.021

    def test_should_drop_only_applies_to_qos0(self):
        model = NetworkModel(default_link=LinkProfile(loss_rate=0.999999), seed=0)
        assert not model.should_drop("c", qos=1)
        assert not model.should_drop("c", qos=2)
        dropped = sum(model.should_drop("c", qos=0) for _ in range(50))
        assert dropped >= 45

    def test_no_loss_never_drops(self):
        model = NetworkModel()
        assert not any(model.should_drop("c", qos=0) for _ in range(100))
