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
        if self.seed < 0:
            raise DomainError("seed must be >= 0")
        if not 0.0 <= self.handoff_penalty_mos <= 1.0:
            raise DomainError("handoff_penalty_mos must be in [0, 1]")
        # The coverage regime flips with probability 1 / dwell_mean_epochs.
        if not self.dwell_mean_epochs >= 1.0:
            raise DomainError("dwell_mean_epochs must be >= 1")


@dataclass(frozen=True)
class SimRun:
    """One generated run: raw delay samples, true MOS and true QoE states,
    each on axes (interface, epoch)."""

    delays_s: np.ndarray      # raw samples, RTT or OWD per channel
    mos: np.ndarray
    states: np.ndarray        # quantized from true MOS, 1-based

    @property
    def duration(self) -> int:
        return self.delays_s.shape[1]

    @property
    def n_interfaces(self) -> int:
        return len(self.delays_s)


@dataclass(frozen=True)
class StepResult:
    realized_mos: float
    handoff_occurred: bool
    handoff_penalty_mos: float


# `run_blocks` generates this many runs at a time, and the harness filters
# each block in one pass: a block's arrays hold runs x interfaces x epochs
# floats, so a fixed block bounds peak memory whatever the number of runs.
BLOCK_RUNS = 16


@dataclass(frozen=True)
class RunBlock:
    """Runs generated in one pass, stacked on axes (run, interface, epoch);
    row b is run `run_indices[b]`."""

    run_indices: tuple[int, ...]
    delays_s: np.ndarray
    mos: np.ndarray


def _uniforms(rngs, horizon: int) -> np.ndarray:
    """The next `horizon` uniforms of each generator, one row each."""
    u = np.empty((len(rngs), horizon))
    for row, rng in zip(u, rngs):
        rng.random(out=row)
    return u


def _sample_chains(model: HmmModel, u: np.ndarray) -> np.ndarray:
    """One state path per row of uniforms `u` (runs x horizon), drawn as
    `rng.choice(n, p=row)` would draw it step by step: each uniform is
    inverted through the normalized cumulative row, so the stream and the
    states are the same."""
    cdf = np.cumsum(np.vstack([model.prior, model.transitions]), axis=1)
    cdf /= cdf[:, -1:]
    # nxt[i, b, t]: the state run b draws at step t from row i (row 0 is
    # the prior).
    nxt = np.stack([np.searchsorted(row, u, side="right") for row in cdf])
    states = np.empty(u.shape, dtype=int)
    rows = np.arange(len(u))
    s = states[:, 0] = nxt[0, :, 0]
    for t in range(1, u.shape[1]):
        s = states[:, t] = nxt[s + 1, rows, t]
    return states


def generate_runs(cfg: ScenarioConfig, run_indices) -> RunBlock:
    """Generate a block of runs in one pass. Each run draws from its own
    streams, one per (cfg.seed, run index, channel) and one for its
    coverage regime, so a run is the same in any block."""
    indices = tuple(run_indices)
    shape = (len(indices), len(cfg.channels), cfg.duration_epochs)
    regime = None
    if cfg.kind == ROAMING:
        u = _uniforms([np.random.default_rng([cfg.seed, r, 0xFF]) for r in indices],
                      shape[2])
        flips = u < 1.0 / cfg.dwell_mean_epochs
        flips[:, 0] = False
        # The regime starts at 0 and toggles at every flip.
        regime = np.cumsum(flips, axis=1) % 2

    delays, owd, loss = np.empty(shape), np.empty(shape), np.empty(shape)
    for ci, channel in enumerate(cfg.channels):
        rngs = [np.random.default_rng([cfg.seed, r, ci]) for r in indices]
        if regime is not None and channel.regime_states is not None:
            dominant, recessive = channel.regime_states
            hidden = np.where(regime == ci, dominant - 1, recessive - 1)
        else:
            hidden = _sample_chains(channel.generator, _uniforms(rngs, shape[2]))
        # `rng.normal(mu, sigma)` is `mu + sigma * z`, with z the stream's
        # `standard_normal`: each run draws z in place, then the slab is
        # scaled and shifted. The delays are bit-identical to `normal`'s as
        # long as NumPy computes `loc + scale * z` without a fused
        # multiply-add, as an x86-64 build with baseline X86_V2 does.
        for b, rng in enumerate(rngs):
            rng.standard_normal(out=delays[b, ci])
        delays[:, ci] *= np.sqrt(channel.generator.variances()[hidden])
        delays[:, ci] += channel.generator.means()[hidden]
        np.clip(delays[:, ci], MIN_DELAY_S, None, out=delays[:, ci])
        owd[:, ci] = delays[:, ci] / 2.0 if channel.delay_is_rtt else delays[:, ci]
        loss[:, ci] = np.asarray(channel.loss_per_state)[hidden]
    return RunBlock(run_indices=indices, delays_s=delays,
                    mos=mos_from_delay(owd, loss, cfg.codec))


def run_blocks(cfg: ScenarioConfig, run_indices):
    """`generate_runs` over `run_indices` in order, BLOCK_RUNS runs at a time."""
    indices = list(run_indices)
    for first in range(0, len(indices), BLOCK_RUNS):
        yield generate_runs(cfg, indices[first:first + BLOCK_RUNS])


def generate_run(cfg: ScenarioConfig, run_index: int) -> SimRun:
    """Generate one run, fully determined by (cfg.seed, run_index): row 0
    of a one-run block, with its MOS quantized into QoE bands."""
    block = generate_runs(cfg, [run_index])
    return SimRun(block.delays_s[0], block.mos[0],
                  quantize_mos(block.mos[0], cfg.scheme))


def step_environment(run: SimRun, epoch: int, current: int, action: int,
                     handoff_penalty_mos: float) -> StepResult:
    """Apply an action at an epoch: the realized MOS on the interface after
    the action, and whether a handoff happened.

    A switching epoch pays the scenario's MOS penalty, floored at 1.0.
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
    )


def roaming_wlan_g729_model() -> HmmModel:
    """2-state roaming WLAN RTT channel: in coverage vs out of coverage."""
    return HmmModel(
        prior=np.array([0.0, 1.0]),
        transitions=_normalized([[0.9500, 0.0500],
                                 [0.0654, 0.9346]]),
        emissions=(GaussianEmission(0.9905, 0.0044),
                   GaussianEmission(0.0519, 0.0079)),
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
    )


# Loss rates chosen so that the channel states land in their quantization
# bands and the long-run congestion MOS sits near 2.1 for G.711.
CONGESTION_LOSS_PER_STATE = (0.25, 0.15, 0.0)


def congestion_scenario(codec: CodecProfile = G711, duration_epochs: int = 101,
                        runs: int = 12, seed: int = 0) -> ScenarioConfig:
    channel = ChannelModel(generator=congestion_wlan_g711_model(),
                           loss_per_state=CONGESTION_LOSS_PER_STATE,
                           label="WLAN", delay_is_rtt=False)
    return ScenarioConfig(kind=WLAN_CONGESTION, duration_epochs=duration_epochs,
                          runs=runs, seed=seed, codec=codec,
                          channels=(channel,), scheme=CONGESTION_SCHEME)


def roaming_scenario(codec: CodecProfile = G729, duration_epochs: int = 101,
                     runs: int = 12, seed: int = 0,
                     dwell_mean_epochs: float = ScenarioConfig.dwell_mean_epochs,
                     handoff_penalty_mos: float = ScenarioConfig.handoff_penalty_mos
                     ) -> ScenarioConfig:
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


def scenario_factory(kind: str):
    """The factory of scenario `kind`, looked up by name at each call; its
    keyword defaults are the scenario's defaults."""
    if kind not in (ROAMING, WLAN_CONGESTION):
        raise DomainError(f"unknown scenario kind {kind!r}")
    return roaming_scenario if kind == ROAMING else congestion_scenario
