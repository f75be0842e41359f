"""Experiment harness: train the per-interface delay models, run the
learned handoff agent against the oracle/naive/load-metric baselines over
an identical set of simulated runs, and aggregate handoff counts, mean
realized MOS and prediction accuracy into a report.
"""

from __future__ import annotations

import configparser
import dataclasses
import json
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, ZeroProbabilityError
from .hmm import (EmConfig, cross_validate_folds, em_train, forward_filter,
                  predict_next_bands, state_band_map)
from .netsim import (ROAMING, ScenarioConfig, generate_runs, run_blocks,
                     scenario_factory)
from .policies import (QTable, RewardConfig, exploit_action, m4_policy_step,
                       naive_policy_step, oracle_policy, q_iteration, reward)
from .probing import RnlEstimator
from .qoe_model import CODECS, quantize_mos
# Unused here; kept bound because perfbench/tracer.py patches these names.
from .hmm.inference import predict_belief  # noqa: F401
from .netsim import generate_run, step_environment  # noqa: F401
from .policies import epsilon_greedy_action, q_update  # noqa: F401
from .probing import aggregate_epoch  # noqa: F401
from .qoe_model import mos_from_delay  # noqa: F401

ALL_POLICIES = ("best", "naive", "m4", "proposed")

# Run-index offsets keeping HMM fitting data, Q-training episodes and the
# evaluation set disjoint for a shared scenario seed.
_HMM_RUN_OFFSET = 20_000
_TRAIN_RUN_OFFSET = 10_000
_Q_TOL = 1e-12  # the Q-table solve stops once no value moves by more than this

@dataclass(frozen=True)
class HarnessConfig:
    """One comparison's settings; `load_config` and
    `default_roaming_harness` fill in the defaults."""

    scenario: ScenarioConfig
    reward_cfg: RewardConfig
    gamma: float                  # the Q-table's discount
    m4_margin_s: float
    policies_enabled: tuple[str, ...]
    training_episodes: int
    hmm_training_runs: int
    hmm_states: tuple[int, ...]
    em: EmConfig

    def __post_init__(self):
        unknown = set(self.policies_enabled) - set(ALL_POLICIES)
        if unknown:
            raise DomainError(f"unknown policies: {sorted(unknown)}")
        if not self.policies_enabled:
            raise DomainError("no policies enabled")
        repeated = {p for p in self.policies_enabled
                    if self.policies_enabled.count(p) > 1}
        if repeated:
            raise DomainError(f"policies listed twice: {sorted(repeated)}")
        if len(self.hmm_states) != len(self.scenario.channels):
            raise DomainError("hmm_states must give one state count per interface")
        if any(k < 1 for k in self.hmm_states):
            raise DomainError("hmm_states must be >= 1")
        if self.training_episodes < 0:
            raise DomainError("training_episodes must be >= 0")
        # The offsets keep the run sets disjoint only up to these sizes.
        if self.scenario.runs > _TRAIN_RUN_OFFSET:
            raise DomainError(f"runs must be <= {_TRAIN_RUN_OFFSET}, or evaluation "
                              "runs would be training episodes")
        if self.training_episodes > _HMM_RUN_OFFSET - _TRAIN_RUN_OFFSET:
            raise DomainError(
                f"training_episodes must be <= {_HMM_RUN_OFFSET - _TRAIN_RUN_OFFSET}, "
                "or training episodes would be HMM training runs")
        if self.hmm_training_runs < 1:
            raise DomainError("hmm_training_runs must be >= 1")
        if not self.m4_margin_s >= 0:
            raise DomainError("m4_margin_s must be >= 0")
        if not 0.0 <= self.gamma < 1.0:
            raise DomainError("gamma must be in [0, 1)")


@dataclass(frozen=True)
class PolicyResult:
    """One policy's totals over the evaluation runs; `paths[b, t]` is the
    interface it attached run b to at epoch t."""

    handoff_count: int
    mos_sum: float
    reward_sum: float
    paths: np.ndarray

    @property
    def mean_mos(self) -> float:
        return self.mos_sum / self.paths.size if self.paths.size else float("nan")

    def as_dict(self) -> dict:
        return {"handoff_count": self.handoff_count,
                "mean_mos": self.mean_mos,
                "reward_sum": self.reward_sum}


@dataclass
class EvaluationReport:
    policies: dict[str, PolicyResult]
    prediction_accuracy: dict[str, float]
    metadata: dict = field(default_factory=dict)
    # The evaluation runs' MOS behind `PolicyResult.paths`, on axes (run,
    # interface, epoch), kept for timeline exports; never serialized.
    mos: np.ndarray | None = field(default=None, repr=False)

    def reductions(self) -> dict[str, float | None]:
        """Handoff-count reduction of the learned policy vs each baseline."""
        out: dict[str, float | None] = {}
        proposed = self.policies.get("proposed")
        if proposed is None:
            return out
        for baseline in ("naive", "m4"):
            base = self.policies.get(baseline)
            if base is None:
                continue
            if base.handoff_count == 0:
                out[baseline] = None
            else:
                out[baseline] = (base.handoff_count - proposed.handoff_count) \
                    / base.handoff_count
        return out

    def to_json(self) -> str:
        doc = {
            "policies": {name: r.as_dict() for name, r in self.policies.items()},
            "reductions": {k: v for k, v in self.reductions().items()},
            "prediction_accuracy": self.prediction_accuracy,
            "metadata": self.metadata,
        }
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def train_interface_models(cfg: HarnessConfig):
    """Fit one delay HMM per interface on held-out runs. Returns the models,
    their band tables (`state_band_map` on those runs) and, with two or
    more runs, the 2-fold cross-validated one-step prediction accuracy per
    interface, its folds fitted in the same lock-step EM as the model. A
    delay of zero probability under a fold's model is a DomainError naming
    the interface, the HMM training run and the epoch."""
    scenario = cfg.scenario
    block = generate_runs(scenario, range(_HMM_RUN_OFFSET,
                                          _HMM_RUN_OFFSET + cfg.hmm_training_runs))
    models, tables, accuracy = [], [], {}
    for i, channel in enumerate(scenario.channels):
        k = cfg.hmm_states[i]
        dataset = list(zip(block.delays_s[:, i], block.mos[:, i]))
        if len(dataset) >= 2:
            try:
                (model, _), scores = cross_validate_folds(dataset, 2, k,
                                                          scenario.scheme, cfg.em)
            except ZeroProbabilityError as exc:
                run = block.run_indices[exc.row] - _HMM_RUN_OFFSET
                raise DomainError(
                    f"{channel.label} delay of HMM training run {run}, epoch "
                    f"{exc.observation}, has zero predicted probability under a "
                    "cross-validation fold's model") from None
            accuracy[channel.label] = sum(c for c, _ in scores) \
                / sum(t for _, t in scores)
        else:
            model, _ = em_train([obs for obs, _ in dataset], k, cfg.em)
        models.append(model)
        tables.append(state_band_map(model, dataset, scenario.scheme))
    return models, tables, accuracy


def joint_rows(cfg: HarnessConfig, block, models, band_tables) -> np.ndarray:
    """The Q-table rows (run, epoch) of a block of runs, from its delays.

    Probing is multi-homed and always on, so every interface is observed
    (and filtered) whichever one is attached: each epoch's probe RTT is
    that epoch's delay sample. Each interface's beliefs come from one
    batched `forward_filter` call under its model, and its predicted band
    from `predict_next_bands` under its band table. Entry [b, t] folds the
    bands predicted after epoch t row-major, as `JointState.index` folds
    them, with interface 0 attached; add the attached interface's index for
    its row. A delay of zero probability under its model is a DomainError
    naming the interface, the training episode or evaluation run, and the
    epoch.
    """
    n_runs, n_if, duration = block.delays_s.shape
    rows = np.zeros((n_runs, duration), dtype=int)
    for i, (model, table) in enumerate(zip(models, band_tables)):
        try:
            beliefs, _ = forward_filter(model, block.delays_s[:, i])
        except ZeroProbabilityError as exc:
            run = block.run_indices[exc.row]
            what = f"training episode {run - _TRAIN_RUN_OFFSET}" \
                if run >= _TRAIN_RUN_OFFSET else f"evaluation run {run}"
            raise DomainError(
                f"{cfg.scenario.channels[i].label} delay of {what}, epoch "
                f"{exc.observation}, has zero predicted probability under its "
                "fitted model") from None
        bands = predict_next_bands(model, beliefs, table)
        rows = rows * cfg.scenario.scheme.state_count + bands - 1
    return rows * n_if


def price_epochs(cfg: HarnessConfig, mos, handoff):
    """Realized MOS and reward of epochs of MOS `mos`, `handoff` marking (by
    broadcasting) those that hand off: a handoff pays the MOS penalty,
    floored at 1.0, and the handoff cost; any other epoch the minimum cost."""
    rc, penalty = cfg.reward_cfg, cfg.scenario.handoff_penalty_mos
    realized = np.where(handoff, np.maximum(mos - penalty, 1.0), mos)
    return realized, reward(realized, np.where(handoff, rc.handoff_cost, rc.cost_min), rc)


def account(cfg: HarnessConfig, mos: np.ndarray, paths) -> PolicyResult:
    """Handoffs, realized MOS and rewards of a block of runs, with MOS on
    axes (run, interface, epoch), driven along `paths` (run, epoch).

    Epoch t > 0 is a handoff when `paths[b, t] != paths[b, t-1]`, priced by
    `price_epochs`. Each run's sums run in epoch order and the runs are
    added in run order, as a per-epoch loop adds them, so the totals do
    not depend on NumPy's summation order.
    """
    paths = np.asarray(paths)
    attached = np.take_along_axis(mos, paths[:, None, :], axis=1)[:, 0]
    handoff = np.diff(paths, axis=1, prepend=paths[:, :1]) != 0
    realized, rewards = price_epochs(cfg, attached, handoff)
    mos_sum = reward_sum = 0.0
    for m, r in zip(np.cumsum(realized, axis=1)[:, -1].tolist(),
                    np.cumsum(rewards, axis=1)[:, -1].tolist()):
        mos_sum += m
        reward_sum += r
    return PolicyResult(handoff_count=int(handoff.sum()), mos_sum=mos_sum,
                        reward_sum=reward_sum, paths=paths)


def fit_q_table(cfg: HarnessConfig, models, band_tables) -> QTable:
    """The table that Q-learning converges to replaying every transition of
    the training episodes (README, "How compare-policies runs"); a pair
    never seen keeps Q = 0."""
    scenario = cfg.scenario
    n_if = len(scenario.channels)
    qtable = QTable(scenario.scheme.state_count, n_if)
    n_rows = len(qtable.values)
    moves = np.zeros((n_rows, n_if, n_rows), dtype=int)
    reward_sums = np.zeros(n_rows * n_if)
    attached, action = np.arange(n_if)[:, None], np.arange(n_if)
    episodes = range(_TRAIN_RUN_OFFSET, _TRAIN_RUN_OFFSET + cfg.training_episodes)
    for block in run_blocks(scenario, episodes):
        # Axes (run, epoch t - 1, attachment c, action a).
        base = joint_rows(cfg, block, models, band_tables)[:, :, None, None]
        pairs = (base[:, :-1] + attached) * n_if + action
        moves += np.bincount((pairs * n_rows + base[:, 1:] + action).ravel(),
                             minlength=moves.size).reshape(moves.shape)
        # Interface a's MOS at epoch t; the rewards are added one by one in
        # episode order, so the sums do not depend on the block size.
        mos = block.mos[:, None, :, 1:].transpose(0, 3, 1, 2)
        np.add.at(reward_sums, pairs.ravel(),
                  price_epochs(cfg, mos, attached != action)[1].ravel())
        del block, base, pairs, mos  # hold one block's arrays at a time
    visits = np.maximum(moves.sum(axis=2), 1)
    qtable.values = q_iteration(reward_sums.reshape(n_rows, n_if) / visits,
                                moves / visits[..., None], cfg.gamma, _Q_TOL)
    return qtable


def run_q_policy(joint_base: np.ndarray, greedy) -> np.ndarray:
    """Drive every run with the Q-agent and return the attachment paths
    (run, epoch): each epoch a run takes `greedy[row]`, the greedy action
    (`exploit_action`) of its Q-table row; `joint_base` is `joint_rows`."""
    greedy = np.asarray(greedy)
    paths = np.zeros(joint_base.shape, dtype=int)
    for t in range(1, paths.shape[1]):
        paths[:, t] = greedy[joint_base[:, t - 1] + paths[:, t - 1]]
    return paths


def _baseline_paths(cfg: HarnessConfig, kind: str, block) -> np.ndarray:
    """Drive every run of the evaluation block with a baseline and return
    the attachment paths (run, epoch). The oracle plans every run in one
    call; naive and m4 decide each epoch for all runs at once, on the
    measurements up to the previous epoch."""
    if kind == "best":
        # Every run starts attached to interface 0, whatever the oracle's
        # first pick; a move off it counts from epoch 1.
        paths = oracle_policy(quantize_mos(block.mos, cfg.scenario.scheme), start=0)
        paths[:, 0] = 0
        return paths
    delays = block.delays_s
    paths = np.zeros((delays.shape[0], delays.shape[2]), dtype=int)
    load = RnlEstimator()
    for t in range(1, paths.shape[1]):
        current, last = paths[:, t - 1], delays[:, :, t - 1]
        if kind == "naive":
            # Delay-only weighted-QoS scoring on the latest measurements.
            paths[:, t] = naive_policy_step(last, current)
        else:
            load.update(last)
            # m4 stays put while its estimators warm up.
            paths[:, t] = m4_policy_step(load.rnl, current, cfg.m4_margin_s) \
                if load.initialized else current
    return paths


def run_comparison(cfg: HarnessConfig) -> EvaluationReport:
    """Run every enabled policy over the same evaluation runs.

    The learned policy's Q-table is fitted (`fit_q_table`) on freshly
    generated training episodes, then evaluated frozen; evaluation runs
    are never seen in training.
    """
    scenario = cfg.scenario
    if scenario.kind == ROAMING and len(scenario.channels) < 2:
        raise DomainError("policy comparison needs at least two interfaces")
    # All policies share one block of evaluation runs.
    block = generate_runs(scenario, range(scenario.runs))

    results = {}
    accuracy: dict[str, float] = {}
    qtable = None
    for name in cfg.policies_enabled:
        if name == "proposed":
            models, tables, accuracy = train_interface_models(cfg)
            qtable = fit_q_table(cfg, models, tables)
            greedy = [exploit_action(qtable, s) for s in range(len(qtable.values))]
            paths = run_q_policy(joint_rows(cfg, block, models, tables), greedy)
        else:
            paths = _baseline_paths(cfg, name, block)
        results[name] = account(cfg, block.mos, paths)

    metadata = {
        "scenario": scenario.kind,
        "codec": scenario.codec.name,
        "seed": scenario.seed,
        "runs": scenario.runs,
        "duration_epochs": scenario.duration_epochs,
        "training_episodes": cfg.training_episodes if qtable is not None else 0,
    }
    return EvaluationReport(policies=results, prediction_accuracy=accuracy,
                            metadata=metadata, mos=block.mos)


def _codec(name: str):
    if name not in CODECS:
        raise DomainError(f"unknown codec {name!r}")
    return CODECS[name]


# Each [scenario] key but `kind` maps to its parser and sets the factory
# parameter of its name (an unset key keeps the factory's default); only
# the roaming factory takes the roaming-only keys. Each [reward] key sets a
# RewardConfig field, parsed as a float. Any other section or key is
# rejected, so a misspelt setting cannot silently keep its default.
_SCENARIO_KEYS = {"codec": _codec, "duration_epochs": int, "runs": int, "seed": int,
                  "dwell_mean_epochs": float, "handoff_penalty_mos": float}
_ROAMING_ONLY_KEYS = {"dwell_mean_epochs", "handoff_penalty_mos"}
_SECTION_KEYS = {"scenario": {"kind", *_SCENARIO_KEYS}, "qlearn": {"gamma"},
                 "harness": {"policies", "hmm_states", "m4_margin_s",
                             "training_episodes", "hmm_training_runs", "em_seed"},
                 "reward": {f.name for f in dataclasses.fields(RewardConfig)}}


def load_config(path) -> HarnessConfig:
    """Build a harness configuration from a sectioned key=value file.

    Raises DomainError when the file cannot be read or parsed, or holds an
    unknown section or key or a value of the wrong kind.
    """
    parser = configparser.ConfigParser()
    try:
        if parser.read(path):
            return _config_from(parser)
    except (ValueError, configparser.Error) as exc:
        # configparser messages span lines; the CLI prints one error line.
        raise DomainError(f"config file {path}: {' '.join(str(exc).split())}") \
            from None
    raise DomainError(f"cannot read config file {path}")


def _check_keys(parser: configparser.ConfigParser, kind: str) -> None:
    if parser.defaults():
        raise DomainError(f"unknown config section [{parser.default_section}]")
    for name in parser.sections():
        if name not in _SECTION_KEYS:
            raise DomainError(f"unknown config section [{name}]")
        for key in parser[name]:
            if key in _ROAMING_ONLY_KEYS and kind != ROAMING:
                raise DomainError(f"unknown config key {key!r} in [{name}] "
                                  f"for kind {kind}")
            if key not in _SECTION_KEYS[name]:
                raise DomainError(f"unknown config key {key!r} in [{name}]")


def _config_from(parser: configparser.ConfigParser) -> HarnessConfig:
    sc = parser["scenario"] if parser.has_section("scenario") else {}
    kind = sc.get("kind", ROAMING)
    factory = scenario_factory(kind)
    _check_keys(parser, kind)
    scenario = factory(**{key: _SCENARIO_KEYS[key](value)
                          for key, value in sc.items() if key != "kind"})

    rw = parser["reward"] if parser.has_section("reward") else {}
    reward_cfg = RewardConfig(**{key: float(value) for key, value in rw.items()})
    ha = parser["harness"] if parser.has_section("harness") else {}
    policies = tuple(p.strip() for p in
                     ha.get("policies", ",".join(ALL_POLICIES)).split(",") if p.strip())
    hmm_states = tuple(int(x) for x in ha.get("hmm_states", "").split(",") if x.strip())
    if not hmm_states:
        hmm_states = (2, 3) if kind == ROAMING else (scenario.scheme.state_count,)
    em_seed = int(ha.get("em_seed", 0))
    if em_seed < 0:
        raise DomainError("em_seed must be >= 0")
    return HarnessConfig(
        scenario=scenario, reward_cfg=reward_cfg,
        gamma=parser.getfloat("qlearn", "gamma", fallback=0.95),
        m4_margin_s=float(ha.get("m4_margin_s", 0.02)),
        policies_enabled=policies,
        training_episodes=int(ha.get("training_episodes", 150)),
        hmm_training_runs=int(ha.get("hmm_training_runs", 10)),
        hmm_states=hmm_states,
        em=EmConfig(seed=em_seed),
    )


def default_roaming_harness(seed: int | None = None, runs: int | None = None,
                            duration_epochs: int | None = None) -> HarnessConfig:
    """The configuration of a file holding only these [scenario] keys; a
    None key keeps its default."""
    keys = {"seed": seed, "runs": runs, "duration_epochs": duration_epochs}
    parser = configparser.ConfigParser()
    parser.read_dict({"scenario": {k: str(v) for k, v in keys.items() if v is not None}})
    return _config_from(parser)
