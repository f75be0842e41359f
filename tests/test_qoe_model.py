"""MOS chain and quantization tests.

Golden values were hand-derived from the R-factor formulas (see the
inline arithmetic next to each constant).
"""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qoehandoff.errors import DomainError
from qoehandoff.qoe_model import (CONGESTION_SCHEME, DELAY_KNEE_S, G711, G729,
                                  MOS_MAX, MOS_MIN, R0, ROAMING_SCHEME,
                                  CodecProfile, QuantizationScheme,
                                  mos_from_delay, mos_from_r, quantize_mos)
from references import reference_band, reference_mos


class TestMosFromDelay:
    def test_zero_impairment_golden(self):
        # R = 93.2; MOS = 1 + 0.035*93.2 + 7e-6*93.2*(93.2-60)*(100-93.2)
        #           = 1 + 3.262 + 7e-6*21040.832 = 4.409285824
        assert mos_from_delay(0.0, 0.0, G711) == pytest.approx(4.409285824,
                                                               abs=1e-12)

    def test_g729_zero_delay_golden(self):
        # R = 93.2 - 11 = 82.2
        # MOS = 1 + 0.035*82.2 + 7e-6*82.2*22.2*17.8 = 4.104375064
        assert mos_from_delay(0.0, 0.0, G729) == pytest.approx(4.104375064,
                                                               abs=1e-12)

    def test_below_knee_linear_term_only(self):
        # 100 ms OWD: Id = 0.024*100 = 2.4; R = 90.8
        expected = mos_from_r(93.2 - 2.4)
        assert mos_from_delay(0.100, 0.0, G711) == pytest.approx(expected,
                                                                 abs=1e-12)

    def test_above_knee_adds_second_term(self):
        # 300 ms OWD: Id = 0.024*300 + 0.11*(300-177.3) = 7.2 + 13.497
        expected = mos_from_r(93.2 - 7.2 - 0.11 * (300.0 - 177.3))
        assert mos_from_delay(0.300, 0.0, G711) == pytest.approx(expected,
                                                                 abs=1e-12)

    def test_loss_impairment_golden(self):
        # G711, no delay, 25% loss: Ie_eff = 0 + 95*0.25/(0.25+0.25) = 47.5
        expected = mos_from_r(93.2 - 47.5)
        assert mos_from_delay(0.0, 0.25, G711) == pytest.approx(expected,
                                                                abs=1e-12)

    def test_monotone_in_delay(self):
        values = [mos_from_delay(d / 1000.0, 0.0, G711) for d in range(0, 500, 10)]
        assert all(b <= a for a, b in zip(values, values[1:]))

    def test_monotone_in_loss(self):
        values = [mos_from_delay(0.05, l / 100.0, G729) for l in range(0, 100, 5)]
        assert all(b <= a for a, b in zip(values, values[1:]))

    def test_clamps_to_mos_range(self):
        assert mos_from_delay(2.0, 1.0, G711) == MOS_MIN
        assert MOS_MIN <= mos_from_delay(0.0, 0.0, G711) <= MOS_MAX

    def test_rejects_bad_inputs(self):
        with pytest.raises(DomainError):
            mos_from_delay(-0.1, 0.0, G711)
        with pytest.raises(DomainError):
            mos_from_delay(0.1, 1.5, G711)
        with pytest.raises(DomainError):
            mos_from_delay(0.1, -0.01, G711)
        for owd, loss in ((np.nan, 0.0), (0.1, np.nan)):
            with pytest.raises(DomainError):
                mos_from_delay(owd, loss, G729)

    @given(st.floats(min_value=0.0, max_value=2.0),
           st.floats(min_value=0.0, max_value=1.0))
    def test_always_in_range_and_finite(self, owd, loss):
        mos = mos_from_delay(owd, loss, G729)
        assert MOS_MIN <= mos <= MOS_MAX
        assert math.isfinite(mos)


class TestMosFromR:
    def test_endpoints(self):
        assert mos_from_r(0.0) == MOS_MIN
        assert mos_from_r(-50.0) == MOS_MIN  # clamped below 0
        assert mos_from_r(100.0) == pytest.approx(4.5, abs=1e-12)

    def test_r_clamp_above_100(self):
        assert mos_from_r(150.0) == mos_from_r(100.0)


class TestCodecProfiles:
    def test_table_constants(self):
        assert G711.equipment_impairment == 0.0
        assert G711.loss_robustness == 0.25
        assert G729.equipment_impairment == 11.0
        assert G729.loss_robustness == 0.19

    def test_validation(self):
        with pytest.raises(DomainError):
            CodecProfile("x", equipment_impairment=-1.0, loss_robustness=0.2)


class TestQuantization:
    def test_band_membership_congestion(self):
        # bands: [1,2) -> 1, [2,3) -> 2, [3,5] -> 3
        assert quantize_mos(1.0, CONGESTION_SCHEME) == 1
        assert quantize_mos(1.999, CONGESTION_SCHEME) == 1
        assert quantize_mos(2.0, CONGESTION_SCHEME) == 2  # boundary -> upper
        assert quantize_mos(2.999, CONGESTION_SCHEME) == 2
        assert quantize_mos(3.0, CONGESTION_SCHEME) == 3
        assert quantize_mos(5.0, CONGESTION_SCHEME) == 3

    def test_band_membership_roaming(self):
        assert quantize_mos(1.5, ROAMING_SCHEME) == 1
        assert quantize_mos(2.0, ROAMING_SCHEME) == 2
        assert quantize_mos(3.999, ROAMING_SCHEME) == 2
        assert quantize_mos(4.0, ROAMING_SCHEME) == 3

    def test_out_of_range_mos_clamped(self):
        assert quantize_mos(0.0, CONGESTION_SCHEME) == 1
        assert quantize_mos(9.0, CONGESTION_SCHEME) == 3

    def test_rejects_nan_mos(self):
        # NaN is in no band; clipped, it would sort above every cut point.
        with pytest.raises(DomainError, match="NaN"):
            quantize_mos(np.nan, ROAMING_SCHEME)

    def test_state_count(self):
        assert CONGESTION_SCHEME.state_count == 3
        assert QuantizationScheme((3.0,)).state_count == 2
        assert QuantizationScheme((1.5, 2.5, 3.5, 4.5)).state_count == 5

    def test_rejects_bad_boundaries(self):
        with pytest.raises(DomainError):
            QuantizationScheme((3.0, 2.0))
        with pytest.raises(DomainError):
            QuantizationScheme((2.0, 2.0))
        with pytest.raises(DomainError):
            QuantizationScheme((1.0, 2.0))  # touches the MOS floor
        with pytest.raises(DomainError):
            QuantizationScheme((2.0, 2.5, 3.0))  # 4 states unsupported

    @given(st.floats(min_value=1.0, max_value=5.0))
    def test_state_always_valid(self, mos):
        state = quantize_mos(mos, ROAMING_SCHEME)
        assert 1 <= state <= ROAMING_SCHEME.state_count

    @given(st.floats(min_value=1.0, max_value=5.0),
           st.floats(min_value=1.0, max_value=5.0))
    def test_monotone_in_mos(self, a, b):
        lo, hi = sorted((a, b))
        assert quantize_mos(lo, CONGESTION_SCHEME) <= quantize_mos(hi, CONGESTION_SCHEME)


class TestArrayForms:
    """The array forms equal the per-sample chain element by element."""

    def test_mos_matches_scalar_chain(self):
        knee = DELAY_KNEE_S
        edges = [0.0, knee, np.nextafter(knee, 0.0), np.nextafter(knee, 1.0),
                 0.3, 5.0]
        rng = np.random.default_rng(3)
        owd = np.concatenate([edges, rng.uniform(0.0, 1.2, 400)])
        loss = np.concatenate([np.zeros(len(edges)),
                               rng.choice([0.0, 0.15, 0.25, 1.0], 400)])
        for codec in (G711, G729):
            expected = [reference_mos(o, l, codec)
                        for o, l in zip(owd.tolist(), loss.tolist())]
            assert mos_from_delay(owd, loss, codec).tolist() == expected
            assert [mos_from_delay(o, l, codec)
                    for o, l in zip(owd.tolist(), loss.tolist())] == expected
        # The knee itself is still on the linear branch.
        assert mos_from_delay(knee, 0.0, G711) == mos_from_r(R0 - 0.024 * (knee * 1000.0))

    def test_band_matches_bisect_at_boundaries(self):
        for scheme in (CONGESTION_SCHEME, ROAMING_SCHEME):
            mos = [0.5, MOS_MIN, MOS_MAX, 6.0]
            for b in scheme.boundaries:
                mos += [b, np.nextafter(b, 0.0), np.nextafter(b, 6.0)]
            expected = [reference_band(m, scheme) for m in mos]
            assert quantize_mos(np.array(mos), scheme).tolist() == expected
            scalar = [quantize_mos(m, scheme) for m in mos]
            assert scalar == expected
            assert all(type(v) is int for v in scalar)

    def test_array_rejects_any_bad_element(self):
        with pytest.raises(DomainError):
            mos_from_delay(np.array([0.1, -0.001]), 0.0, G711)
        with pytest.raises(DomainError):
            mos_from_delay(np.array([0.1, 0.2]), np.array([0.0, 1.5]), G711)
        with pytest.raises(DomainError):
            mos_from_delay(np.array([0.1, np.nan]), 0.0, G711)
        with pytest.raises(DomainError, match="NaN"):
            quantize_mos(np.array([4.5, np.nan]), ROAMING_SCHEME)
