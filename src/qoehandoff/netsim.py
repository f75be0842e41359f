"""Discrete-time two-interface access-network environment.

Each interface is backed by a hidden-state channel: a Markov chain over
delay regimes with a Gaussian delay emission and a per-state loss rate.
Two scenario families are built in: a congested WLAN (one interface,
one-way delays) and WLAN/cellular roaming (two interfaces, RTT samples,
with WLAN coverage flipping on a geometric dwell so that the dominant
interface alternates).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .hmm.model import GaussianEmission, HmmModel
from .qoe_model import (CONGESTION_SCHEME, G711, G729, ROAMING_SCHEME,
                        CodecProfile, QuantizationScheme, mos_from_delay,
                        quantize_mos)

WLAN_CONGESTION = "wlan_congestion"
ROAMING = "roaming"

MIN_DELAY_S = 0.001


@dataclass(frozen=True)
class ChannelModel:
    """Ground-truth delay process for one interface.

    `regime_states` (dominant, recessive), when set, lets the roaming
    scenario drive this channel's hidden state from the coverage regime
    instead of free-running its chain.
    """

    generator: HmmModel
    loss_per_state: tuple[float, ...]
    label: str
    delay_is_rtt: bool = False
    regime_states: tuple[int, int] | None = None

    def __post_init__(self):
        if len(self.loss_per_state) != self.generator.n_states:
            raise DomainError("loss_per_state length must match state count")
        if any(not 0.0 <= l <= 1.0 for l in self.loss_per_state):
            raise DomainError("loss rates must be in [0, 1]")


@dataclass(frozen=True)
class ScenarioConfig:
    kind: str
    duration_epochs: int
    runs: int
    seed: int
    codec: CodecProfile
    channels: tuple[ChannelModel, ...]
    scheme: QuantizationScheme
    handoff_penalty_mos: float = 0.3
    dwell_mean_epochs: float = 40.0

    def __post_init__(self):
        if self.kind not in (WLAN_CONGESTION, ROAMING):
            raise DomainError(f"unknown scenario kind {self.kind!r}")
        if self.duration_epochs < 2:
            raise DomainError("duration_epochs must be >= 2")
        if self.runs < 1:
            raise DomainError("runs must be >= 1")
        if not 0.0 <= self.handoff_penalty_mos <= 1.0:
            raise DomainError("handoff_penalty_mos must be in [0, 1]")


@dataclass(frozen=True)
class SimRun:
    """One generated run: raw delay samples, true MOS and true QoE states,
    all per interface and of equal length."""

    run_index: int
    seed: int
    delays_s: tuple[np.ndarray, ...]      # raw samples, RTT or OWD per channel
    owds_s: tuple[np.ndarray, ...]
    mos: tuple[np.ndarray, ...]
    states: tuple[np.ndarray, ...]        # quantized from true MOS, 1-based

    @property
    def duration(self) -> int:
        return len(self.delays_s[0])

    @property
    def n_interfaces(self) -> int:
        return len(self.delays_s)


@dataclass(frozen=True)
class StepResult:
    realized_mos: float
    handoff_occurred: bool
    handoff_penalty_mos: float


def _sample_chain(model: HmmModel, horizon: int, rng: np.random.Generator) -> np.ndarray:
    """A state path drawn as `rng.choice(n, p=row)` would draw it step by
    step: one uniform per step, inverted through the normalized cumulative
    row, so the stream and the states are the same."""
    u = rng.random(horizon)
    cdf = np.cumsum(np.vstack([model.prior, model.transitions]), axis=1)
    cdf /= cdf[:, -1:]
    # nxt[i, t]: the state drawn at step t from row i (row 0 is the prior).
    nxt = np.array([np.searchsorted(row, u, side="right") for row in cdf]).tolist()
    states = np.empty(horizon, dtype=int)
    s = nxt[0][0]
    states[0] = s
    for t in range(1, horizon):
        s = nxt[s + 1][t]
        states[t] = s
    return states


def generate_run(cfg: ScenarioConfig, run_index: int) -> SimRun:
    """Generate one run, fully determined by (cfg.seed, run_index)."""
    horizon = cfg.duration_epochs
    regime = None
    if cfg.kind == ROAMING:
        rng = np.random.default_rng([cfg.seed, run_index, 0xFF])
        flips = rng.random(horizon) < 1.0 / cfg.dwell_mean_epochs
        flips[0] = False
        # The regime starts at 0 and toggles at every flip.
        regime = np.cumsum(flips) % 2

    delays, owds, moss, states = [], [], [], []
    for ci, channel in enumerate(cfg.channels):
        rng = np.random.default_rng([cfg.seed, run_index, ci])
        if regime is not None and channel.regime_states is not None:
            dominant, recessive = channel.regime_states
            hidden = np.where(regime == ci, dominant - 1, recessive - 1)
        else:
            hidden = _sample_chain(channel.generator, horizon, rng)
        mu = channel.generator.means()[hidden]
        sigma = np.sqrt(channel.generator.variances()[hidden])
        delay = np.clip(rng.normal(mu, sigma), MIN_DELAY_S, None)
        owd = delay / 2.0 if channel.delay_is_rtt else delay
        loss = np.asarray(channel.loss_per_state)[hidden]
        mos = mos_from_delay(owd, loss, cfg.codec)
        state = quantize_mos(mos, cfg.scheme)
        delays.append(delay)
        owds.append(owd)
        moss.append(mos)
        states.append(state)
    return SimRun(run_index=run_index, seed=cfg.seed,
                  delays_s=tuple(delays), owds_s=tuple(owds),
                  mos=tuple(moss), states=tuple(states))


def step_environment(run: SimRun, epoch: int, current: int, action: int,
                     handoff_penalty_mos: float = 0.3) -> StepResult:
    """Apply an action at an epoch: the realized MOS on the interface after
    the action, and whether a handoff happened.

    A switching epoch pays the configured MOS penalty, floored at 1.0.
    """
    if not 0 <= epoch < run.duration:
        raise DomainError("epoch out of range")
    if not 0 <= action < run.n_interfaces or not 0 <= current < run.n_interfaces:
        raise DomainError("interface index out of range")
    handoff = action != current
    mos = float(run.mos[action][epoch])
    if handoff:
        mos = max(mos - handoff_penalty_mos, 1.0)
    return StepResult(realized_mos=mos, handoff_occurred=handoff,
                      handoff_penalty_mos=handoff_penalty_mos if handoff else 0.0)


def _normalized(rows) -> np.ndarray:
    # Published matrices are rounded to 4 decimals; renormalize the rows so
    # they satisfy the stochasticity invariant exactly.
    m = np.asarray(rows, dtype=float)
    return m / m.sum(axis=1, keepdims=True)


def congestion_wlan_g711_model() -> HmmModel:
    """3-state congested-WLAN one-way-delay channel (G.711 fit)."""
    return HmmModel(
        prior=np.array([0.6000, 0.2000, 0.2000]),
        transitions=_normalized([[0.9279, 0.0596, 0.0125],
                                 [0.2817, 0.3803, 0.3380],
                                 [0.0400, 0.2400, 0.7200]]),
        emissions=(GaussianEmission(0.4850, 0.0576),
                   GaussianEmission(0.1302, 0.0010),
                   GaussianEmission(0.0462, 0.0006)),
        scheme=CONGESTION_SCHEME,
        metadata={"channel": "wlan-congestion", "codec": "g711", "units": "owd_s"},
    )


def roaming_wlan_g729_model() -> HmmModel:
    """2-state roaming WLAN RTT channel: in coverage vs out of coverage."""
    return HmmModel(
        prior=np.array([0.0, 1.0]),
        transitions=_normalized([[0.9500, 0.0500],
                                 [0.0654, 0.9346]]),
        emissions=(GaussianEmission(0.9905, 0.0044),
                   GaussianEmission(0.0519, 0.0079)),
        scheme=None,
        metadata={"channel": "roaming-wlan", "codec": "g729", "units": "rtt_s"},
    )


def roaming_cdma_g729_model() -> HmmModel:
    """3-state roaming CDMA2000 RTT channel."""
    return HmmModel(
        prior=np.array([0.0, 0.0, 1.0]),
        transitions=_normalized([[0.7852, 0.1333, 0.0815],
                                 [0.1111, 0.8148, 0.0741],
                                 [0.0696, 0.0435, 0.8870]]),
        emissions=(GaussianEmission(0.9519, 0.0055),
                   GaussianEmission(0.6401, 0.0076),
                   GaussianEmission(0.2857, 0.0025)),
        scheme=ROAMING_SCHEME,
        metadata={"channel": "roaming-cdma2000", "codec": "g729", "units": "rtt_s"},
    )


# Loss rates chosen so that the channel states land in their quantization
# bands and the long-run congestion MOS sits near 2.1 for G.711.
CONGESTION_LOSS_PER_STATE = (0.25, 0.15, 0.0)


def congestion_scenario(codec: CodecProfile = G711, duration_epochs: int = 101,
                        runs: int = 100, seed: int = 0) -> ScenarioConfig:
    channel = ChannelModel(generator=congestion_wlan_g711_model(),
                           loss_per_state=CONGESTION_LOSS_PER_STATE,
                           label="WLAN", delay_is_rtt=False)
    return ScenarioConfig(kind=WLAN_CONGESTION, duration_epochs=duration_epochs,
                          runs=runs, seed=seed, codec=codec,
                          channels=(channel,), scheme=CONGESTION_SCHEME)


def roaming_scenario(codec: CodecProfile = G729, duration_epochs: int = 101,
                     runs: int = 12, seed: int = 0,
                     dwell_mean_epochs: float = 40.0,
                     handoff_penalty_mos: float = 0.3) -> ScenarioConfig:
    wlan = ChannelModel(generator=roaming_wlan_g729_model(),
                        loss_per_state=(0.0, 0.0), label="WLAN",
                        delay_is_rtt=True, regime_states=(2, 1))
    cdma = ChannelModel(generator=roaming_cdma_g729_model(),
                        loss_per_state=(0.0, 0.0, 0.0), label="CDMA2000",
                        delay_is_rtt=True)
    return ScenarioConfig(kind=ROAMING, duration_epochs=duration_epochs,
                          runs=runs, seed=seed, codec=codec,
                          channels=(wlan, cdma), scheme=ROAMING_SCHEME,
                          dwell_mean_epochs=dwell_mean_epochs,
                          handoff_penalty_mos=handoff_penalty_mos)
