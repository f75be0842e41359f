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

from .errors import DomainError
from .hmm import (EmConfig, HmmModel, cross_validate_folds, em_train,
                  forward_filter, predict_next_states)
from .netsim import (ROAMING, ScenarioConfig, SimRun, congestion_scenario,
                     generate_runs, roaming_scenario, run_blocks)
from .policies import (HysteresisConfig, QTable, RewardConfig, decide_handoff,
                       exploit_action, m4_policy_step, naive_policy_step,
                       oracle_policy, q_iteration, reward)
from .probing import RnlEstimator
# Unused here; kept bound because perfbench/tracer.py patches these names.
from .hmm.inference import predict_belief  # noqa: F401
from .netsim import generate_run, step_environment  # noqa: F401
from .policies import epsilon_greedy_action, q_update  # noqa: F401
from .probing import aggregate_epoch  # noqa: F401
from .qoe_model import CODECS, mos_from_delay, quantize_mos

ALL_POLICIES = ("best", "naive", "m4", "proposed")

# Run-index offsets keeping HMM fitting data, Q-training episodes and the
# evaluation set disjoint for a shared scenario seed.
_HMM_RUN_OFFSET = 20_000
_TRAIN_RUN_OFFSET = 10_000
_Q_TOL = 1e-12  # the Q-table solve stops once no value moves by more

@dataclass(frozen=True)
class HarnessConfig:
    """One comparison's settings; `load_config` and
    `default_roaming_harness` fill in the defaults."""

    scenario: ScenarioConfig
    reward_cfg: RewardConfig
    gamma: float                  # the Q-table's discount
    hysteresis: HysteresisConfig
    m4_margin_s: float
    policies_enabled: tuple[str, ...]
    training_episodes: int
    hmm_training_runs: int
    hmm_states: tuple[int, ...]   # () fits the scheme's state count
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
        if self.hmm_states and len(self.hmm_states) != len(self.scenario.channels):
            raise DomainError("hmm_states must give one state count per interface")
        if any(k < 1 for k in self.hmm_states):
            raise DomainError("hmm_states must be >= 1")
        if self.training_episodes < 0:
            raise DomainError("training_episodes must be >= 0")
        if self.hmm_training_runs < 1:
            raise DomainError("hmm_training_runs must be >= 1")
        if not self.m4_margin_s >= 0:
            raise DomainError("m4_margin_s must be >= 0")
        if not 0.0 <= self.gamma < 1.0:
            raise DomainError("gamma must be in [0, 1)")


@dataclass
class PolicyResult:
    handoff_count: int = 0
    mos_sum: float = 0.0
    mos_epochs: int = 0
    reward_sum: float = 0.0
    # One attachment sequence per evaluated run (for timeline exports).
    paths: list = field(default_factory=list)

    @property
    def mean_mos(self) -> float:
        return self.mos_sum / self.mos_epochs if self.mos_epochs else float("nan")

    def as_dict(self) -> dict:
        return {"handoff_count": self.handoff_count,
                "mean_mos": self.mean_mos,
                "reward_sum": self.reward_sum}


@dataclass
class EvaluationReport:
    policies: dict[str, PolicyResult]
    prediction_accuracy: dict[str, float]
    metadata: dict = field(default_factory=dict)
    # The evaluation runs behind `PolicyResult.paths`, kept for timeline
    # exports; never serialized.
    runs: list[SimRun] = field(default_factory=list, repr=False)

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


def state_to_qoe_map(model: HmmModel, delay_is_rtt: bool, codec, scheme) -> list[int]:
    """QoE band of each hidden state's typical delay (zero-loss MOS)."""
    mapping = []
    for emission in model.emissions:
        owd = emission.mean / 2.0 if delay_is_rtt else emission.mean
        mapping.append(quantize_mos(mos_from_delay(max(owd, 0.0), 0.0, codec), scheme))
    return mapping


def train_interface_models(cfg: HarnessConfig):
    """Fit one delay HMM per interface on held-out runs; with two or more
    runs, also returns the 2-fold cross-validated one-step prediction
    accuracy per interface, its folds fitted in the same lock-step EM as
    the model."""
    scenario = cfg.scenario
    block = generate_runs(scenario, range(_HMM_RUN_OFFSET,
                                          _HMM_RUN_OFFSET + cfg.hmm_training_runs))
    models = []
    accuracy = {}
    for i, channel in enumerate(scenario.channels):
        k = cfg.hmm_states[i] if cfg.hmm_states else scenario.scheme.state_count
        dataset = list(zip(block.delays_s[:, i], block.mos[:, i]))
        if len(dataset) >= 2:
            (model, _), scores = cross_validate_folds(dataset, 2, k, scenario.scheme,
                                                      cfg.em)
            accuracy[channel.label] = sum(c for c, _ in scores) \
                / sum(t for _, t in scores)
        else:
            model, _ = em_train([obs for obs, _ in dataset], k, cfg.em)
        models.append(model)
    return models, accuracy


@dataclass(frozen=True)
class RunFeatures:
    """Per-epoch features of a block of B equal-length runs that no policy
    action can change: probing is multi-homed and always on, so every
    interface is observed (and filtered) whichever one is attached.

    `observations[b, i, t]` is interface i's epoch-t probe RTT: every
    lossless probe of an epoch carries that epoch's delay sample.
    `joint_base[b, t]` is the Q-table row for the QoE bands predicted
    after epoch t with interface 0 attached; add the attached interface's
    index for its row. `rnl[b][t]` holds each interface's load estimate
    after epoch t, None while the estimator warms up.
    """

    observations: np.ndarray
    joint_base: np.ndarray | None = None
    rnl: list | None = None


def run_features(observations: np.ndarray, models=None, qoe_maps=None,
                 n_states: int = 0, with_rnl: bool = False) -> RunFeatures:
    """Compute a block's action-independent features in one pass, from its
    delays on axes (run, interface, epoch), as `RunBlock.delays_s` holds them.

    With `models` (one HMM per interface, and its state -> QoE band map)
    each interface's beliefs come from one batched `forward_filter` call;
    the predicted band is the map of `predict_next_states` (the MAP state
    of the one-step-ahead belief), folded row-major into `joint_base` as
    `JointState.index` folds it. `with_rnl` adds the load-metric series of the m4 baseline.
    """
    n_runs, n_if, _ = observations.shape
    joint_base = rnl = None
    if models is not None:
        joint_base = np.zeros((n_runs, observations.shape[2]), dtype=int)
        for i, (model, qmap) in enumerate(zip(models, qoe_maps)):
            beliefs, _ = forward_filter(model, observations[:, i])
            predicted = predict_next_states(model, beliefs) - 1
            joint_base = joint_base * n_states + np.asarray(qmap)[predicted] - 1
        joint_base *= n_if
    if with_rnl:
        rnl = []
        for run_obs in observations.tolist():
            estimators = [RnlEstimator() for _ in range(n_if)]
            series = []
            for epoch_obs in zip(*run_obs):
                for est, rtt in zip(estimators, epoch_obs):
                    est.update(rtt)
                series.append([est.rnl if est.initialized else None
                               for est in estimators])
            rnl.append(series)
    return RunFeatures(observations, joint_base, rnl)


def account(cfg: HarnessConfig, run: SimRun, path: list[int]) -> PolicyResult:
    """Handoffs, realized MOS and rewards of one run driven along `path`.

    Epoch t > 0 is a handoff when `path[t] != path[t-1]`: it pays the MOS
    penalty (floored at 1.0) and the handoff cost, any other epoch the
    minimum cost. The sums run in epoch order, as a per-epoch loop adds
    them, so they do not depend on NumPy's summation order.
    """
    rc = cfg.reward_cfg
    mos = np.asarray(run.mos)[path, np.arange(run.duration)]
    handoff = np.diff(path, prepend=path[0]) != 0
    realized = np.where(handoff,
                        np.maximum(mos - cfg.scenario.handoff_penalty_mos, 1.0), mos)
    rewards = reward(realized, np.where(handoff, rc.handoff_cost, rc.cost_min), rc)
    mos_sum = reward_sum = 0.0
    for m, r in zip(realized.tolist(), rewards.tolist()):
        mos_sum += m
        reward_sum += r
    return PolicyResult(handoff_count=int(handoff.sum()), mos_sum=mos_sum,
                        mos_epochs=run.duration, reward_sum=reward_sum, paths=[path])


def fit_q_table(cfg: HarnessConfig, models, qoe_maps) -> QTable:
    """The table that Q-learning converges to replaying every transition of
    the training episodes (README, "How compare-policies runs"); a pair
    never seen keeps Q = 0."""
    scenario, rc = cfg.scenario, cfg.reward_cfg
    n_if = len(scenario.channels)
    qtable = QTable(scenario.scheme.state_count, n_if)
    n_rows = len(qtable.values)
    moves = np.zeros((n_rows, n_if, n_rows), dtype=int)
    reward_sums = np.zeros(n_rows * n_if)
    attached, action = np.arange(n_if)[:, None], np.arange(n_if)
    episodes = range(_TRAIN_RUN_OFFSET, _TRAIN_RUN_OFFSET + cfg.training_episodes)
    for block in run_blocks(scenario, episodes):
        # Axes (run, epoch t - 1, attachment c, action a).
        base = run_features(block.delays_s, models, qoe_maps, qtable.n_states) \
            .joint_base[:, :, None, None]
        pairs = (base[:, :-1] + attached) * n_if + action
        moves += np.bincount((pairs * n_rows + base[:, 1:] + action).ravel(),
                             minlength=moves.size).reshape(moves.shape)
        # Interface a's MOS at epoch t; the rewards are added one by one in
        # episode order, so the sums do not depend on the block size.
        mos = block.mos[:, None, :, 1:].transpose(0, 3, 1, 2)
        np.add.at(reward_sums, pairs.ravel(), np.where(
            attached == action, reward(mos, rc.cost_min, rc),
            reward(np.maximum(mos - scenario.handoff_penalty_mos, 1.0),
                   rc.handoff_cost, rc)).ravel())
        del block, base, pairs, mos  # hold one block's arrays at a time
    visits = np.maximum(moves.sum(axis=2), 1)
    qtable.values = q_iteration(reward_sums.reshape(n_rows, n_if) / visits,
                                moves / visits[..., None], cfg.gamma, _Q_TOL)
    return qtable


def run_q_policy(cfg: HarnessConfig, joint_base: np.ndarray,
                 qtable: QTable) -> list[int]:
    """Drive one run with the Q-agent and return its attachment path: the
    greedy action of each row, a switch gated by the hysteresis; `joint_base`
    is the run's row of `RunFeatures.joint_base`."""
    base = joint_base.tolist()
    current, path = 0, [0]
    epochs_since_handoff = cfg.hysteresis.dwell_epochs
    for t in range(1, len(base)):
        s = base[t - 1] + current
        proposed = exploit_action(qtable, s)
        row = qtable.values[s].tolist()
        action = decide_handoff(proposed, current, row[proposed] - row[current],
                                cfg.hysteresis, epochs_since_handoff)
        epochs_since_handoff = 0 if action != current else epochs_since_handoff + 1
        current = action
        path.append(current)
    return path


def _baseline_path(cfg: HarnessConfig, run: SimRun, kind: str,
                   observations: np.ndarray, rnl) -> list[int]:
    """Drive one run with a baseline and return its attachment path;
    `observations` and `rnl` are the run's entries of its block's
    `RunFeatures`."""
    if kind == "best":
        # Every run starts attached to interface 0, whatever the oracle's
        # first pick; a move off it counts from epoch 1.
        return [0] + oracle_policy([run.states[i] for i in range(run.n_interfaces)],
                                   start=0)[1:]
    if kind == "naive":
        # Delay-only weighted-QoS scoring on the latest measurements.
        owds = (observations.T / 2.0).tolist()
    elif kind != "m4":
        raise DomainError(f"unknown baseline {kind!r}")
    current = 0
    path = [current]
    for t in range(1, run.duration):
        if kind == "naive":
            current = naive_policy_step(owds[t - 1], current)
        else:
            current = m4_policy_step(rnl[t - 1], current, cfg.m4_margin_s)
        path.append(current)
    return path


def _merge(into: PolicyResult, part: PolicyResult) -> None:
    into.handoff_count += part.handoff_count
    into.mos_sum += part.mos_sum
    into.mos_epochs += part.mos_epochs
    into.reward_sum += part.reward_sum
    into.paths.extend(part.paths)


def run_comparison(cfg: HarnessConfig) -> EvaluationReport:
    """Run every enabled policy over the same evaluation runs.

    The learned policy's Q-table is fitted (`fit_q_table`) on freshly
    generated training episodes, then evaluated frozen; evaluation runs
    are never seen in training.
    """
    scenario = cfg.scenario
    if scenario.kind == ROAMING and len(scenario.channels) < 2:
        raise DomainError("policy comparison needs at least two interfaces")
    eval_block = generate_runs(scenario, range(scenario.runs))

    results = {name: PolicyResult() for name in cfg.policies_enabled}
    accuracy: dict[str, float] = {}
    n_states = scenario.scheme.state_count
    models = qoe_maps = qtable = None
    if "proposed" in cfg.policies_enabled:
        models, accuracy = train_interface_models(cfg)
        qoe_maps = [state_to_qoe_map(m, ch.delay_is_rtt, scenario.codec,
                                     scenario.scheme)
                    for m, ch in zip(models, scenario.channels)]
        qtable = fit_q_table(cfg, models, qoe_maps)

    # All policies share one feature block over the evaluation runs.
    features = run_features(eval_block.delays_s, models, qoe_maps, n_states,
                            with_rnl="m4" in cfg.policies_enabled)
    for b, run in enumerate(eval_block.runs):
        for name in cfg.policies_enabled:
            if name == "proposed":
                path = run_q_policy(cfg, features.joint_base[b], qtable)
            else:
                path = _baseline_path(cfg, run, name, features.observations[b],
                                      features.rnl[b] if features.rnl else None)
            _merge(results[name], account(cfg, run, path))

    metadata = {
        "scenario": scenario.kind,
        "codec": scenario.codec.name,
        "seed": scenario.seed,
        "runs": scenario.runs,
        "duration_epochs": scenario.duration_epochs,
        "training_episodes": cfg.training_episodes if qtable is not None else 0,
    }
    return EvaluationReport(policies=results, prediction_accuracy=accuracy,
                            metadata=metadata, runs=list(eval_block.runs))


# The [scenario], [qlearn] and [harness] keys; each of the other sections
# sets the fields of a config, which hold its keys' defaults and declare
# their types. Any other section or key is rejected, so a misspelt setting
# cannot silently keep its default.
_SCENARIO_KEYS = {"kind", "codec", "duration_epochs", "runs", "seed",
                  "dwell_mean_epochs", "handoff_penalty_mos"}
_ROAMING_ONLY_KEYS = {"dwell_mean_epochs", "handoff_penalty_mos"}
_SECTION_KEYS = {"qlearn": {"gamma"},
                 "harness": {"policies", "hmm_states", "m4_margin_s",
                             "training_episodes", "hmm_training_runs", "em_seed"}}
_SECTION_DEFAULTS = {"reward": RewardConfig(), "hysteresis": HysteresisConfig()}
_FIELD_TYPES = {"int": int, "float": float, "str": str}


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
        if name == "scenario":
            known = _SCENARIO_KEYS if kind == "roaming" \
                else _SCENARIO_KEYS - _ROAMING_ONLY_KEYS
        elif name in _SECTION_KEYS:
            known = _SECTION_KEYS[name]
        elif name in _SECTION_DEFAULTS:
            known = {f.name for f in dataclasses.fields(_SECTION_DEFAULTS[name])}
        else:
            raise DomainError(f"unknown config section [{name}]")
        for key in parser[name]:
            if key not in known:
                where = f"[{name}] for kind {kind}" if key in _ROAMING_ONLY_KEYS \
                    else f"[{name}]"
                raise DomainError(f"unknown config key {key!r} in {where}")


def _section_config(parser: configparser.ConfigParser, name: str):
    """The section's defaults with each key the file sets parsed as its
    field's declared type, in field order."""
    defaults = _SECTION_DEFAULTS[name]
    section = parser[name] if parser.has_section(name) else {}
    return dataclasses.replace(defaults, **{
        f.name: _FIELD_TYPES[f.type](section[f.name])
        for f in dataclasses.fields(defaults) if f.name in section})


def _config_from(parser: configparser.ConfigParser) -> HarnessConfig:
    sc = parser["scenario"] if parser.has_section("scenario") else {}
    kind = sc.get("kind", "roaming")
    codec = CODECS.get(sc.get("codec", "g729" if kind == "roaming" else "g711"))
    if codec is None:
        raise DomainError(f"unknown codec {sc.get('codec')!r}")
    common = dict(
        codec=codec,
        duration_epochs=int(sc.get("duration_epochs", 101)),
        runs=int(sc.get("runs", 12)),
        seed=int(sc.get("seed", 0)),
    )
    if kind == "roaming":
        scenario = roaming_scenario(
            dwell_mean_epochs=float(sc.get("dwell_mean_epochs", 40.0)),
            handoff_penalty_mos=float(sc.get("handoff_penalty_mos", 0.3)),
            **common)
    elif kind == "wlan_congestion":
        scenario = congestion_scenario(**common)
    else:
        raise DomainError(f"unknown scenario kind {kind!r}")
    _check_keys(parser, kind)

    reward_cfg, hysteresis = (_section_config(parser, name)
                              for name in _SECTION_DEFAULTS)
    ha = parser["harness"] if parser.has_section("harness") else {}
    policies = tuple(p.strip() for p in
                     ha.get("policies", ",".join(ALL_POLICIES)).split(",") if p.strip())
    hmm_states = tuple(int(x) for x in ha.get("hmm_states", "").split(",") if x.strip())
    if not hmm_states and kind == "roaming":
        hmm_states = (2, 3)
    return HarnessConfig(
        scenario=scenario, reward_cfg=reward_cfg,
        gamma=parser.getfloat("qlearn", "gamma", fallback=0.95),
        hysteresis=hysteresis,
        m4_margin_s=float(ha.get("m4_margin_s", 0.02)),
        policies_enabled=policies,
        training_episodes=int(ha.get("training_episodes", 150)),
        hmm_training_runs=int(ha.get("hmm_training_runs", 10)),
        hmm_states=hmm_states,
        em=EmConfig(seed=int(ha.get("em_seed", 0))),
    )


def default_roaming_harness(seed: int | None = None, runs: int | None = None,
                            duration_epochs: int | None = None) -> HarnessConfig:
    """The configuration of a file holding only these [scenario] keys; a
    None key keeps its default."""
    keys = {"seed": seed, "runs": runs, "duration_epochs": duration_epochs}
    parser = configparser.ConfigParser()
    parser.read_dict({"scenario": {k: str(v) for k, v in keys.items() if v is not None}})
    return _config_from(parser)
