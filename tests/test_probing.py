"""Probe aggregation and the smoothed load metric.

The 5-sample load fixture is hand-derived with h=5, c=5:

    rtt    Z                           |D|    J       RNL
    0.10   0.10                        -      -       0.10
    0.20   0.2/5 + 0.8*0.10 = 0.12     0.10   0.10    0.12   (J seeded, Z only)
    0.10   0.1/5 + 0.8*0.12 = 0.116    0.10   0.10    0.616
    0.10   0.02 + 0.8*0.116 = 0.1128   0.00   0.08    0.5128
    0.30   0.06 + 0.8*0.1128= 0.15024  0.20   0.104   0.67024
"""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qoehandoff.errors import DomainError
from qoehandoff.probing import (ProbeConfig, RnlEstimator, aggregate_epoch,
                                signaling_overhead_bps)
from references import rnl_update

GOLDEN_RTTS = [0.10, 0.20, 0.10, 0.10, 0.30]
GOLDEN_RNL = [0.10, 0.12, 0.616, 0.5128, 0.67024]
GOLDEN_Z = [0.10, 0.12, 0.116, 0.1128, 0.15024]


class TestSignalingOverhead:
    def test_default_rate(self):
        assert signaling_overhead_bps(ProbeConfig()) == 960

    def test_scales_with_inputs(self):
        assert signaling_overhead_bps(ProbeConfig(probes_per_second=10)) == 1920
        assert signaling_overhead_bps(
            ProbeConfig(probes_per_second=1, ba_packet_bytes=100)) == 800


class TestAggregateEpoch:
    def test_mean_of_received_probes(self):
        value, imputed = aggregate_epoch([0.1, 0.2, 0.3], ProbeConfig())
        assert value == pytest.approx(0.2)
        assert not imputed

    def test_threshold_clamp_on_silence(self):
        value, imputed = aggregate_epoch([], ProbeConfig(late_threshold_s=0.65))
        assert value == 0.65
        assert imputed

    def test_config_validation(self):
        with pytest.raises(DomainError):
            ProbeConfig(probes_per_second=0)


class TestLoadEstimator:
    def test_golden_sequence(self):
        est = RnlEstimator(h=5, c=5.0)
        out = [est.update(r) for r in GOLDEN_RTTS]
        assert out == pytest.approx(GOLDEN_RNL, abs=1e-12)
        assert est.z == pytest.approx(GOLDEN_Z[-1], abs=1e-12)

    def test_pure_wrapper_leaves_original_untouched(self):
        est = RnlEstimator(h=5, c=5.0)
        results = []
        for rtt in GOLDEN_RTTS:
            new_est, rnl = rnl_update(est, rtt)
            assert new_est is not est
            results.append(rnl)
            est = new_est
        assert results == pytest.approx(GOLDEN_RNL, abs=1e-12)

    def test_first_sample_is_z_only(self):
        est = RnlEstimator()
        assert est.update(0.25) == 0.25
        assert not est.initialized

    def test_initialized_after_two_samples(self):
        est = RnlEstimator()
        est.update(0.1)
        est.update(0.1)
        assert est.initialized

    def test_constant_input_fixed_point(self):
        # Constant RTT keeps Z at the input exactly and J at zero. Dyadic
        # values make every EWMA operation exact in binary floating point.
        est = RnlEstimator(h=4, c=5.0)
        for _ in range(20):
            assert est.update(0.25) == 0.25
        assert est.j == 0.0

    def test_c_zero_reduces_to_smoothed_rtt(self):
        est = RnlEstimator(h=5, c=0.0)
        out = [est.update(r) for r in GOLDEN_RTTS]
        assert out == pytest.approx(GOLDEN_Z, abs=1e-12)

    def test_h_one_tracks_raw_rtt(self):
        # With h=1 the EWMA collapses onto the latest sample.
        est = RnlEstimator(h=1, c=0.0)
        for rtt in GOLDEN_RTTS:
            assert est.update(rtt) == pytest.approx(rtt, abs=1e-15)

    def test_rejects_nonpositive_rtt(self):
        with pytest.raises(DomainError):
            RnlEstimator().update(0.0)
        with pytest.raises(DomainError):
            RnlEstimator().update(-1.0)
        for bad in (np.nan, np.array([0.1, np.nan])):
            with pytest.raises(DomainError):
                RnlEstimator().update(bad)
        with pytest.raises(DomainError):
            RnlEstimator(h=0)

    def test_rnl_before_any_sample_raises(self):
        with pytest.raises(DomainError):
            RnlEstimator().rnl

    @given(st.lists(st.floats(min_value=1e-3, max_value=10.0),
                    min_size=2, max_size=30),
           st.floats(min_value=1e-3, max_value=1.0))
    def test_shift_is_additive_for_z(self, rtts, shift):
        # Adding a constant to every RTT shifts Z by that constant and
        # leaves the jitter term unchanged.
        a = RnlEstimator(h=5, c=5.0)
        b = RnlEstimator(h=5, c=5.0)
        for rtt in rtts:
            a.update(rtt)
            b.update(rtt + shift)
        assert b.z == pytest.approx(a.z + shift, rel=1e-9)
        assert b.j == pytest.approx(a.j, abs=1e-9)
        assert b.rnl == pytest.approx(a.rnl + shift, rel=1e-9)

    @given(st.lists(st.floats(min_value=1e-3, max_value=10.0),
                    min_size=1, max_size=30))
    def test_load_bounded_by_extremes(self, rtts):
        est = RnlEstimator(h=5, c=0.0)
        for rtt in rtts:
            est.update(rtt)
        assert min(rtts) - 1e-12 <= est.rnl <= max(rtts) + 1e-12
