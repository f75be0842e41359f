"""Discrete-time two-interface access-network environment.

Each interface is backed by a hidden-state channel: a Markov chain over
delay regimes with a Gaussian delay emission and a per-state loss rate.
Two scenario families are built in: a congested WLAN (one interface,
one-way delays) and WLAN/cellular roaming (two interfaces, RTT samples,
with WLAN coverage flipping on a geometric dwell so that the dominant
interface alternates).

Runs are generated in two passes. A plan pass (`_plan`) takes a chunk of
runs: it computes the seed of every stream of every run at once, draws
the regime and chain uniforms from one Generator switched between the
streams, and samples all the chunk's hidden chains of a channel in one
loop over the epochs. Each block of the chunk then draws its runs'
normals from the same Generator and maps them to MOS (`_draw_block`).
Every stream is still the one `np.random.default_rng([seed, run, tag])`
would build, so a run is the same in any block and any plan.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .hmm import inference
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


# `run_blocks` yields this many runs at a time, and the harness filters
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


# Run r draws from the PCG64 streams that `np.random.default_rng([seed, r,
# tag])` builds: tag ci for channel ci and _REGIME_TAG for its coverage
# regime. So a run is the same in any block or plan. Building a Generator
# costs about 11 µs, most of it NumPy's SeedSequence hash, so
# `_stream_seeds` hashes all the streams of a plan in one pass of uint32
# array operations, and one Generator draws them all, switched between
# streams by assigning its state (about 1 µs). Bit-identity with
# `default_rng` rests on NumPy's seeding, which tests/test_netsim.py
# checks stream by stream against `default_rng`:
# - SeedSequence's hash: each int of the entropy is split into 32-bit
#   words, low word first (so an int of 2**32 or more adds words), the
#   words are mixed into a 4-word pool (`mix_entropy`), and
#   `generate_state(4, np.uint64)` hashes the pool out into the seed;
# - PCG64's `pcg64_set_seed`, done here in Python ints: with the seed's
#   halves initstate and initseq, inc = 2 * initseq + 1 and state =
#   (inc + initstate) * _PCG_MULT + inc, mod 2**128;
# - a fresh stream holds no buffered 32-bit half (`has_uint32 = 0`).
# A chain stream's normals start where its uniforms end; that state is
# read back from the generator, not derived from one 64-bit output per
# `random()` double.
_REGIME_TAG = 0xFF
_MASK32 = 0xFFFF_FFFF
_MASK128 = (1 << 128) - 1
_POOL = 4  # SeedSequence's pool, in 32-bit words
# The hash multiplier of `mix_entropy` and of `generate_state`: each hash
# call xors its value with the multiplier, steps the multiplier, and
# multiplies by the stepped one.
_MIX_START, _MIX_STEP = 0x43B0_D7E5, 0x931E_8875
_OUT_START, _OUT_STEP = 0x8B51_F9DD, 0x58F3_8DED
_MIX_L, _MIX_R = np.uint32(0xCA01_F9DD), np.uint32(0x4973_F715)
_PCG_MULT = 0x2360_ED05_1FC6_5DA4_4385_DF64_9FCC_F645


def _multipliers(start: int, step: int, calls: int) -> np.ndarray:
    """The multiplier before each of `calls` hash calls, and after the last,
    as a read-only uint32 column: call k xors with entry k and multiplies
    by entry k + 1."""
    values = [start]
    for _ in range(calls):
        values.append(values[-1] * step & _MASK32)
    column = np.array(values, dtype=np.uint32)[:, None]
    column.flags.writeable = False
    return column


# `generate_state(4, np.uint64)` hashes out eight words, the pool twice.
_OUT_MULTIPLIERS = _multipliers(_OUT_START, _OUT_STEP, 2 * _POOL)


@functools.lru_cache(maxsize=None)
def _mix_multipliers(n_words: int) -> np.ndarray:
    """`mix_entropy`'s multipliers for `n_words` words of entropy: one call
    per pool word, one per ordered pair of pool words, and one per pool
    word for each entropy word beyond the pool."""
    return _multipliers(_MIX_START, _MIX_STEP,
                        _POOL * _POOL + _POOL * max(n_words - _POOL, 0))


def _hashmix(values, multipliers, first: int, calls: int) -> np.ndarray:
    """SeedSequence's `hashmix` by calls first .. first + calls - 1, one
    call per row of the result; `values` broadcasts against the rows."""
    v = (values ^ multipliers[first:first + calls]) \
        * multipliers[first + 1:first + calls + 1]
    return v ^ (v >> 16)


def _mix(x, y) -> np.ndarray:
    """SeedSequence's `mix` of pool words `x` with hashed words `y`."""
    r = _MIX_L * x - _MIX_R * y
    return r ^ (r >> 16)


def _seed_sequence_states(entropy: np.ndarray) -> list[list[int]]:
    """`SeedSequence(words).generate_state(4, np.uint64)` for each column
    of `entropy`, a (word, stream) uint32 array: four lists of ints, one
    per uint64 word of the state."""
    n_words = len(entropy)
    multipliers = _mix_multipliers(n_words)
    # Entropy shorter than the pool is hashed as if padded with zeros.
    pool = np.zeros((_POOL, entropy.shape[1]), dtype=np.uint32)
    pool[:n_words] = entropy[:_POOL]
    pool = _hashmix(pool, multipliers, 0, _POOL)
    call = _POOL
    for src in range(_POOL):
        dst = [d for d in range(_POOL) if d != src]
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], multipliers, call, _POOL - 1))
        call += _POOL - 1
    for word in entropy[_POOL:]:
        pool = _mix(pool, _hashmix(word, multipliers, call, _POOL))
        call += _POOL
    words = _hashmix(np.tile(pool, (2, 1)), _OUT_MULTIPLIERS, 0, 2 * _POOL)
    words = words.astype(np.uint64)
    return (words[0::2] | words[1::2] << 32).tolist()


def _word_count(n: int) -> int:
    """The 32-bit words SeedSequence splits the non-negative int n into."""
    return max(1, (n.bit_length() + 31) // 32)


def _stream_seeds(seed: int, run_indices, tags) -> list[list[tuple[int, int]]]:
    """The PCG64 (state, inc) of `np.random.default_rng([seed, r, tag])`
    for each tag (each below 2**32) and run index r: one list per tag, in
    run order. Raises ValueError on a negative run index, as
    `default_rng` does."""
    runs = [operator.index(r) for r in run_indices]
    if any(r < 0 for r in runs):
        raise ValueError("run indices must be non-negative")
    seed_words = [seed >> 32 * w & _MASK32 for w in range(_word_count(seed))]
    seeds = [[None] * len(runs) for _ in tags]
    # Entropy of another length hashes differently: one pass per run width.
    widths = {}
    for b, r in enumerate(runs):
        widths.setdefault(_word_count(r), []).append(b)
    for width, rows in widths.items():
        entropy = np.empty((len(seed_words) + width + 1, len(rows), len(tags)),
                           dtype=np.uint32)
        entropy[:len(seed_words)] = np.array(seed_words)[:, None, None]
        for w in range(width):
            entropy[len(seed_words) + w] = \
                np.array([runs[b] >> 32 * w & _MASK32 for b in rows])[:, None]
        entropy[-1] = tags
        states = zip(*_seed_sequence_states(entropy.reshape(len(entropy), -1)))
        for b in rows:
            for per_tag in seeds:
                state_hi, state_lo, seq_hi, seq_lo = next(states)
                # PCG64's `pcg64_set_seed`.
                inc = ((seq_hi << 64 | seq_lo) << 1 | 1) & _MASK128
                per_tag[b] = ((inc + (state_hi << 64 | state_lo)) * _PCG_MULT
                              + inc & _MASK128, inc)
    return seeds


def _seek(generator: np.random.Generator, stream: tuple[int, int]) -> None:
    """Point `generator` at the fresh or resumed PCG64 stream (state, inc)."""
    state, inc = stream
    generator.bit_generator.state = {
        "bit_generator": "PCG64", "state": {"state": state, "inc": inc},
        "has_uint32": 0, "uinteger": 0}


def _sample_chains(model: HmmModel, u: np.ndarray) -> np.ndarray:
    """One state path per row of uniforms `u` (runs x horizon), drawn as
    `rng.choice(n, p=row)` would draw it step by step: each uniform is
    inverted through the normalized cumulative row, so the stream and the
    states are the same. The states come in a compact unsigned dtype."""
    cdf = np.cumsum(np.vstack([model.prior, model.transitions]), axis=1)
    cdf /= cdf[:, -1:]
    runs, horizon = u.shape
    # nxt[t, i, b] = (s + 1) * runs + b, with s the state run b draws at
    # step t from row i (row 0 is the prior): the place of run b's row s + 1
    # in step t + 1's flattened table, so one `take` a step moves every run.
    nxt = np.empty((horizon, len(cdf), runs),
                   dtype=np.min_scalar_type(len(cdf) * runs))
    ut = u.T
    for i, row in enumerate(cdf):
        # `searchsorted(row, u, side="right")`: the bounds at or below u.
        # The last bound is 1.0, above every uniform.
        state = nxt[:, i]
        np.greater_equal(ut, row[0], out=state)
        for bound in row[1:-1]:
            state += ut >= bound
        state *= runs
        state += np.arange(runs, 2 * runs, dtype=nxt.dtype)
    path = np.empty((horizon, runs), dtype=nxt.dtype)
    path[0] = nxt[0, 0]
    for t in range(1, horizon):
        path[t] = nxt[t].take(path[t - 1])
    path //= runs
    path -= 1
    return path.T


@dataclass(frozen=True)
class _Plan:
    """Runs with all but their normals drawn: each channel's hidden states,
    on axes (run, epoch), the stream each run's normals of that channel
    start from, and the one generator that draws every stream."""

    run_indices: tuple[int, ...]
    hidden: tuple[np.ndarray, ...]
    normal_streams: tuple[list[tuple[int, int]], ...]
    generator: np.random.Generator


def _plan(cfg: ScenarioConfig, indices: tuple[int, ...]) -> _Plan:
    """Seed every stream of runs `indices`, draw their regime and chain
    uniforms, and sample all their chains of a channel in one loop."""
    roaming = cfg.kind == ROAMING
    tags = tuple(range(len(cfg.channels))) + ((_REGIME_TAG,) if roaming else ())
    streams = _stream_seeds(cfg.seed, indices, tags)
    generator = np.random.Generator(np.random.PCG64(0))  # every draw seeks first

    def uniforms(tag_streams):
        """Each stream's first `duration_epochs` uniforms, one row each, and
        the stream where they end."""
        u = np.empty((len(indices), cfg.duration_epochs))
        ends = []
        for row, stream in zip(u, tag_streams):
            _seek(generator, stream)
            generator.random(out=row)
            ends.append((generator.bit_generator.state["state"]["state"], stream[1]))
        return u, ends

    if roaming:
        flips = uniforms(streams[-1])[0] < 1.0 / cfg.dwell_mean_epochs
        flips[:, 0] = False
        # The regime starts at 0 and toggles at every flip.
        regime = np.logical_xor.accumulate(flips, axis=1)
    hidden, normal_streams = [], []
    for ci, channel in enumerate(cfg.channels):
        if roaming and channel.regime_states is not None:
            dominant, recessive = channel.regime_states
            hidden.append(np.where(regime == ci, np.int8(dominant - 1),
                                   np.int8(recessive - 1)))
            normal_streams.append(streams[ci])
        else:
            u, ends = uniforms(streams[ci])
            hidden.append(_sample_chains(channel.generator, u))
            normal_streams.append(ends)
    return _Plan(indices, tuple(hidden), tuple(normal_streams), generator)


def _draw_block(cfg: ScenarioConfig, plan: _Plan, first: int, stop: int) -> RunBlock:
    """Runs `first` to `stop` of a plan as a block: their normals drawn,
    set on their states and mapped to MOS."""
    shape = (len(plan.run_indices[first:stop]), len(cfg.channels), cfg.duration_epochs)
    delays, owd, loss = np.empty(shape), np.empty(shape), np.empty(shape)
    for ci, channel in enumerate(cfg.channels):
        hidden = plan.hidden[ci][first:stop]
        # `rng.normal(mu, sigma)` is `mu + sigma * z`, with z the stream's
        # `standard_normal`: each run draws z in place, then the slab is
        # scaled and shifted. The delays are bit-identical to `normal`'s as
        # long as NumPy computes `loc + scale * z` without a fused
        # multiply-add, as an x86-64 build with baseline X86_V2 does.
        for row, stream in zip(delays[:, ci], plan.normal_streams[ci][first:stop]):
            _seek(plan.generator, stream)
            plan.generator.standard_normal(out=row)
        delays[:, ci] *= np.sqrt(channel.generator.variances()[hidden])
        delays[:, ci] += channel.generator.means()[hidden]
        np.clip(delays[:, ci], MIN_DELAY_S, None, out=delays[:, ci])
        owd[:, ci] = delays[:, ci] / 2.0 if channel.delay_is_rtt else delays[:, ci]
        loss[:, ci] = np.asarray(channel.loss_per_state)[hidden]
    return RunBlock(run_indices=plan.run_indices[first:stop], delays_s=delays,
                    mos=mos_from_delay(owd, loss, cfg.codec))


def generate_runs(cfg: ScenarioConfig, run_indices) -> RunBlock:
    """Generate a block of runs in one pass: one plan, one block. Each run
    draws from its own streams, one per (cfg.seed, run index, channel) and
    one for its coverage regime, so a run is the same in any block."""
    plan = _plan(cfg, tuple(run_indices))
    return _draw_block(cfg, plan, 0, len(plan.run_indices))


def run_blocks(cfg: ScenarioConfig, run_indices):
    """`generate_runs` over `run_indices` in order, BLOCK_RUNS runs at a
    time. The runs are planned a chunk at a time: whole blocks, as many as
    fit `hmm.inference.FILTER_CHUNK_SAMPLES` samples per channel, and at
    least one, so that the seeding and the chain loop span many blocks."""
    indices = tuple(run_indices)
    size = BLOCK_RUNS * max(1, inference.FILTER_CHUNK_SAMPLES
                            // (BLOCK_RUNS * cfg.duration_epochs))
    for start in range(0, len(indices), size):
        plan = _plan(cfg, indices[start:start + size])
        for first in range(0, len(plan.run_indices), BLOCK_RUNS):
            yield _draw_block(cfg, plan, first, first + BLOCK_RUNS)


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
