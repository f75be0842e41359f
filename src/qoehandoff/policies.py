"""Handoff decision policies.

Covers the learned tabular Q-policy, the load-metric baseline (argmin of
the smoothed RTT+jitter load), the weighted-QoS naive baseline, an offline
minimal-handoff oracle, and the one Bellman solver (`q_iteration`) that
fits the agent's table and backs the value-iteration references.

Actions are interface indices; selecting the current interface means
staying. Joint agent states are indexed row-major over
(state_if0, ..., state_if{n-1}, current_interface), as `JointState.index`
computes; the Q-table functions take that row index.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError


@dataclass(frozen=True)
class RewardConfig:
    """Weights and clamp ranges for the blended QoE/cost reward."""

    w_qoe: float = 1.0
    qoe_min: float = 1.0
    qoe_max: float = 5.0
    cost_min: float = 0.0
    cost_max: float = 1.0
    handoff_cost: float = 1.0

    def __post_init__(self):
        for f in dataclasses.fields(self):
            if not math.isfinite(getattr(self, f.name)):
                raise DomainError(f"{f.name} must be finite")
        if not 0.0 <= self.w_qoe <= 1.0:
            raise DomainError("w_qoe must be in [0, 1]")
        if self.qoe_min >= self.qoe_max or self.cost_min >= self.cost_max:
            raise DomainError("min bounds must be below max bounds")
        if self.handoff_cost < 0:
            raise DomainError("handoff_cost must be >= 0")


@dataclass(frozen=True)
class QLearningConfig:
    alpha: float = 0.1
    gamma: float = 0.95
    alpha_decay: str = "constant"  # or "inverse_visit"

    def __post_init__(self):
        if not 0.0 < self.alpha <= 1.0:
            raise DomainError("alpha must be in (0, 1]")
        if not 0.0 <= self.gamma < 1.0:
            raise DomainError("gamma must be in [0, 1)")
        if self.alpha_decay not in ("constant", "inverse_visit"):
            raise DomainError(f"unknown alpha_decay {self.alpha_decay!r}")


@dataclass(frozen=True)
class JointState:
    """Per-interface QoE states (1-based) plus the attached interface."""

    per_interface_state: tuple[int, ...]
    current_interface: int

    def index(self, n_states: int) -> int:
        idx = 0
        for s in self.per_interface_state:
            if not 1 <= s <= n_states:
                raise DomainError("state out of range for the scheme")
            idx = idx * n_states + (s - 1)
        n_if = len(self.per_interface_state)
        if not 0 <= self.current_interface < n_if:
            raise DomainError("current_interface out of range")
        return idx * n_if + self.current_interface


class QTable:
    """Action-value table over the joint state space."""

    def __init__(self, n_states: int, n_interfaces: int):
        self.n_states = n_states
        self.n_interfaces = n_interfaces
        n_joint = n_states ** n_interfaces * n_interfaces
        self.values = np.zeros((n_joint, n_interfaces))
        self.visit_counts = np.zeros((n_joint, n_interfaces), dtype=int)


def reward(qoe_value, cost, cfg: RewardConfig):
    """Blended reward in [0, 1]: w*f(QoE) + (1-w)*f(Cost).

    f(QoE) ramps linearly from 0 at qoe_min to 1 at qoe_max; f(Cost) ramps
    from 1 at cost_min down to 0 at cost_max. Works elementwise on scalars
    or broadcastable arrays; a scalar input gives a float. Rounding is
    monotone, so a value at or beyond a clamp bound ramps to at least 1
    (or at most 0) and clips to exactly 1.0 (or 0.0).
    """
    f_qoe = np.clip((np.asarray(qoe_value, dtype=float) - cfg.qoe_min)
                    / (cfg.qoe_max - cfg.qoe_min), 0.0, 1.0)
    f_cost = np.clip((cfg.cost_max - np.asarray(cost, dtype=float))
                     / (cfg.cost_max - cfg.cost_min), 0.0, 1.0)
    r = cfg.w_qoe * f_qoe + (1.0 - cfg.w_qoe) * f_cost
    return float(r) if r.ndim == 0 else r


def q_update(q: QTable, s: int, a: int, r: float, s_next: int,
             cfg: QLearningConfig) -> QTable:
    """One temporal-difference backup between joint-state rows `s` and
    `s_next`; increments the (s, a) visit count."""
    if cfg.alpha_decay == "inverse_visit":
        alpha = 1.0 / (1.0 + q.visit_counts[s, a])
    else:
        alpha = cfg.alpha
    target = r + cfg.gamma * max(q.values[s_next].tolist())
    q.values[s, a] += alpha * (target - q.values[s, a])
    q.visit_counts[s, a] += 1
    return q


def exploit_action(q: QTable, s: int) -> int:
    """Greedy action in joint-state row `s`; ties prefer staying on the
    current interface (the row's last index digit), then the lowest index
    (anti ping-pong)."""
    row = q.values[s].tolist()
    best = max(row)
    candidates = [a for a, value in enumerate(row) if value == best]
    current = s % q.n_interfaces
    if current in candidates:
        return current
    return candidates[0]


def epsilon_greedy_action(q: QTable, s: int, epsilon: float,
                          rng: np.random.Generator) -> int:
    """With probability `epsilon` a uniformly drawn action, otherwise
    `exploit_action`; draws `rng.random()`, then `rng.integers` only when
    exploring."""
    if rng.random() < epsilon:
        return int(rng.integers(q.n_interfaces))
    return exploit_action(q, s)


def m4_policy_step(rnl, current, margin: float):
    """Move to the lowest-load interface when its advantage beats `margin`
    (in seconds). `rnl` holds the interfaces' loads on its last axis,
    one row per entry of `current`; ties go to the lowest index."""
    rnl = np.asarray(rnl, dtype=float)
    current = np.asarray(current)
    target = rnl.argmin(axis=-1)
    on_current = np.take_along_axis(rnl, current[..., None], axis=-1)[..., 0]
    return np.where(on_current - rnl.min(axis=-1) > margin, target, current)


def naive_policy_step(delays, current):
    """Weighted-QoS scoring on delay alone: each interface scores the
    reciprocal of its delay; pick the argmax, ties stay on the current
    interface, else go to the lowest index. `delays` holds the interfaces
    on its last axis, one row per entry of `current`."""
    delays = np.asarray(delays, dtype=float)
    if not (delays > 0.0).all():
        raise DomainError("delay must be > 0")
    scores = 1.0 / delays
    current = np.asarray(current)
    on_current = np.take_along_axis(scores, current[..., None], axis=-1)[..., 0]
    return np.where(on_current == scores.max(axis=-1), current,
                    scores.argmax(axis=-1))


def oracle_policy(per_interface_states, start: int | None = None):
    """Offline minimal-handoff interface sequence that sits on a best-state
    interface at every epoch.

    `per_interface_states` holds one QoE-state sequence per interface and
    gives a list, or a block of them on axes (run, interface, epoch) and
    gives a path per run on axes (run, epoch). With `start` given, the
    first epoch counts a handoff if it forces a move off that interface;
    otherwise the starting interface is free. Ties stay on the interface,
    else come from the lowest index; a path ends on the lowest-cost, then
    lowest, index.
    """
    try:
        states = np.asarray(per_interface_states)
    except ValueError:
        raise DomainError("per-interface state sequences must share a length") from None
    n_if, horizon = states.shape[-2:]
    best = (states == states.max(axis=-2, keepdims=True)).reshape(-1, n_if, horizon)
    runs = np.arange(len(best))
    # cost[b, i]: the fewest handoffs of a best-state path of run b ending
    # on interface i; switch[i, j] charges the move from j to i.
    entry = 0.0 if start is None else 1.0 * (np.arange(n_if) != start)
    cost = np.where(best[:, :, 0], entry, np.inf)
    switch = 1.0 - np.eye(n_if)
    back = np.zeros((horizon, len(runs), n_if), dtype=int)
    for t in range(1, horizon):
        moves = cost[:, None, :] + switch
        low = moves.min(axis=2)
        back[t] = np.where(low == cost, np.arange(n_if), moves.argmin(axis=2))
        cost = np.where(best[:, :, t], low, np.inf)
    paths = np.empty((len(runs), horizon), dtype=int)
    paths[:, -1] = cost.argmin(axis=1)
    for t in range(horizon - 1, 0, -1):
        paths[:, t - 1] = back[t, runs, paths[:, t]]
    return paths if states.ndim == 3 else paths[0].tolist()


def q_iteration(rewards: np.ndarray, transitions: np.ndarray, gamma: float,
                tol: float) -> np.ndarray:
    """Iterate Q(s, a) <- R(s, a) + gamma * sum_s' P[s, a, s'] max_a' Q(s', a')
    from Q = 0 until no entry moves by more than `tol`. `rewards` is
    (S, A), `transitions` (S, A, S); a zero row with zero reward keeps Q = 0."""
    q = np.zeros(rewards.shape)
    while True:
        q, previous = rewards + gamma * (transitions @ q.max(axis=1)), q
        if np.abs(q - previous).max() <= tol:
            return q


def value_iteration(tm_per_action: np.ndarray, rewards: np.ndarray, gamma: float,
                    tol: float = 1e-10) -> tuple[np.ndarray, np.ndarray]:
    """Solve U(s) = R(s) + gamma * max_a sum_s' TM[a, s, s'] U(s').

    Returns the utilities and the greedy policy (argmax over actions of the
    expected next-state utility).
    """
    u = q_star(tm_per_action, rewards, gamma, tol).max(axis=1)
    return u, (np.asarray(tm_per_action, dtype=float) @ u).argmax(axis=0)


def q_star(tm_per_action: np.ndarray, rewards: np.ndarray, gamma: float,
           tol: float = 1e-10) -> np.ndarray:
    """Optimal action values Q*[s, a] of state rewards R(s) and one
    transition matrix TM[a] per action, by `q_iteration`."""
    tm = np.asarray(tm_per_action, dtype=float)
    r = np.asarray(rewards, dtype=float)
    if tm.ndim != 3 or tm.shape[1] != tm.shape[2] or tm.shape[1] != r.size:
        raise DomainError("tm_per_action must have shape (A, S, S) matching rewards")
    if not 0.0 <= gamma < 1.0:
        raise DomainError("gamma must be in [0, 1)")
    if np.abs(tm.sum(axis=2) - 1.0).max() > 1e-9 or (tm < 0).any():
        raise DomainError("transition rows must be stochastic")
    return q_iteration(np.repeat(r[:, None], tm.shape[0], axis=1),
                       tm.transpose(1, 0, 2), gamma, tol)
