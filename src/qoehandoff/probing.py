"""Passive probe bookkeeping: per-epoch RTT aggregation, signaling
overhead, and the smoothed load metric (EWMA of RTT plus weighted EWMA of
RTT jitter) used by the load-based baseline policy.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError


@dataclass(frozen=True)
class ProbeConfig:
    probes_per_second: int = 5
    ba_packet_bytes: int = 24
    late_threshold_s: float = 0.650

    def __post_init__(self):
        if self.probes_per_second < 1:
            raise DomainError("probes_per_second must be >= 1")
        if self.ba_packet_bytes <= 0:
            raise DomainError("ba_packet_bytes must be > 0")


def signaling_overhead_bps(config: ProbeConfig) -> int:
    """Probe signaling load in bits per second (5 probes x 24 bytes = 960 bps)."""
    return config.probes_per_second * config.ba_packet_bytes * 8


def aggregate_epoch(rtts, config: ProbeConfig) -> tuple[float, bool]:
    """Reduce one epoch's received probe RTTs to a single RTT.

    Returns (rtt_s, imputed): the mean RTT, or the lateness threshold,
    imputed, when no probe arrived.
    """
    rtts = list(rtts)
    if rtts:
        return sum(rtts) / len(rtts), False
    return config.late_threshold_s, True


@dataclass
class RnlEstimator:
    """Streaming network-load estimate from an RTT sequence.

    Maintains Z (EWMA of RTT over a window of h samples) and J (EWMA of
    absolute RTT jitter), reporting Z + c*J. J is seeded from the first
    jitter sample, so the jitter term only contributes from the third
    sample onward; before that the estimate is Z alone. Each update takes
    one RTT, or an array of RTTs that each get an estimate of their own
    (element-wise, as one estimator per element would compute them).
    """

    h: int = 5
    c: float = 5.0
    z: float = 0.0
    j: float = 0.0
    last_rtt: float = 0.0
    count: int = field(default=0)

    def __post_init__(self):
        if self.h < 1:
            raise DomainError("history window h must be >= 1")

    @property
    def initialized(self) -> bool:
        return self.count >= 2

    @property
    def rnl(self) -> float:
        if self.count == 0:
            raise DomainError("no samples yet")
        # The seeded J only enters once it has been smoothed at least once.
        return self.z + self.c * self.j if self.count >= 3 else self.z

    def update(self, rtt_s):
        if not np.all(np.greater(rtt_s, 0)):
            raise DomainError("rtt_s must be > 0")
        w = 1.0 / self.h
        if self.count == 0:
            self.z = rtt_s
        else:
            self.z = w * rtt_s + (1.0 - w) * self.z
            d = rtt_s - self.last_rtt
            if self.count == 1:
                # J seeded with the first jitter sample, then immediately
                # folded through the same EWMA, which leaves it unchanged.
                self.j = np.abs(d)
            else:
                self.j = w * np.abs(d) + (1.0 - w) * self.j
        self.last_rtt = rtt_s
        self.count += 1
        return self.rnl
