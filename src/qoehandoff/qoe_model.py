"""Delay/loss to MOS mapping and MOS quantization into discrete QoE states.

The MOS computation follows the standard parametric voice-quality chain:
an R-factor starting at R0 is reduced by a delay impairment (piecewise
linear with a knee at 177.3 ms one-way delay) and an effective equipment
impairment that grows with packet loss, then mapped to MOS through the
usual cubic and clamped to [1, 5].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError

R0 = 93.2
DELAY_KNEE_S = 0.1773
MOS_MIN = 1.0
MOS_MAX = 5.0


@dataclass(frozen=True)
class CodecProfile:
    """Voice codec constants: equipment impairment and loss robustness."""

    name: str
    equipment_impairment: float  # Ie
    loss_robustness: float       # bpl, loss fraction at which Ie_eff halves its headroom

    def __post_init__(self):
        if self.equipment_impairment < 0:
            raise DomainError("equipment_impairment must be >= 0")


G711 = CodecProfile(name="G711", equipment_impairment=0.0, loss_robustness=0.25)
G729 = CodecProfile(name="G729", equipment_impairment=11.0, loss_robustness=0.19)

CODECS = {"g711": G711, "g729": G729}


@dataclass(frozen=True)
class QuantizationScheme:
    """Ascending MOS cut points splitting [1, 5] into half-open state bands.

    State k covers [b_{k-1}, b_k); a MOS equal to a boundary belongs to the
    upper band. State 1 is the worst band.
    """

    boundaries: tuple[float, ...]

    def __post_init__(self):
        bs = tuple(float(b) for b in self.boundaries)
        object.__setattr__(self, "boundaries", bs)
        if self.state_count not in (2, 3, 5):
            raise DomainError(f"unsupported state count {self.state_count}")
        if any(b2 <= b1 for b1, b2 in zip(bs, bs[1:])):
            raise DomainError("boundaries must be strictly ascending")
        if bs and (bs[0] <= MOS_MIN or bs[-1] >= MOS_MAX):
            raise DomainError("boundaries must lie strictly inside (1, 5)")

    @property
    def state_count(self) -> int:
        return len(self.boundaries) + 1


# 3-state congestion bands: MOS < 2, [2, 3), >= 3.
CONGESTION_SCHEME = QuantizationScheme((2.0, 3.0))
# 3-state roaming bands: MOS < 2, [2, 4), >= 4.
ROAMING_SCHEME = QuantizationScheme((2.0, 4.0))


def mos_from_delay(owd_s, loss_fraction, codec: CodecProfile):
    """MOS for one-way delays (seconds) and loss fractions under the codec.

    Works elementwise on scalars or broadcastable arrays; a scalar input
    gives a float. Deterministic and monotone non-increasing in both
    impairments.
    """
    owd = np.asarray(owd_s, dtype=float)
    loss = np.asarray(loss_fraction, dtype=float)
    if not (owd >= 0).all():
        raise DomainError("one-way delay must be >= 0")
    if not ((0.0 <= loss) & (loss <= 1.0)).all():
        raise DomainError("loss fraction must be in [0, 1]")
    d_ms = owd * 1000.0
    delay_impairment = 0.024 * d_ms
    delay_impairment = np.where(owd > DELAY_KNEE_S,
                                delay_impairment + 0.11 * (d_ms - DELAY_KNEE_S * 1000.0),
                                delay_impairment)
    ie = codec.equipment_impairment
    loss_impairment = ie + (95.0 - ie) * loss / (loss + codec.loss_robustness)
    r = R0 - delay_impairment - loss_impairment
    return mos_from_r(r)


def mos_from_r(r):
    """Cubic R-factor to MOS map, with R clamped to [0, 100] and MOS to [1, 5].

    Elementwise like `mos_from_delay`."""
    r = np.clip(r, 0.0, 100.0)
    mos = np.clip(1.0 + 0.035 * r + 7e-6 * r * (r - 60.0) * (100.0 - r),
                  MOS_MIN, MOS_MAX)
    return float(mos) if mos.ndim == 0 else mos


def quantize_mos(mos, scheme: QuantizationScheme):
    """1-based QoE state index of the band containing `mos`.

    Elementwise on arrays (an int array out); a scalar gives an int. A NaN
    MOS is a DomainError.
    """
    if np.isnan(mos).any():
        raise DomainError("mos must not be NaN")
    state = np.searchsorted(scheme.boundaries, np.clip(mos, MOS_MIN, MOS_MAX),
                            side="right") + 1
    return int(state) if state.ndim == 0 else state
