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
import itertools
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
class HysteresisConfig:
    margin: float = 0.1
    dwell_epochs: int = 2

    def __post_init__(self):
        if not self.margin >= 0:
            raise DomainError("margin must be >= 0")
        if self.dwell_epochs < 0:
            raise DomainError("dwell_epochs must be >= 0")


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


def decide_handoff(proposed: int, current: int, expected_gain: float,
                   hys: HysteresisConfig, epochs_since_handoff: int) -> int:
    """Gate a proposed switch behind the hysteresis margin and dwell time."""
    if proposed == current:
        return current
    if expected_gain < hys.margin or epochs_since_handoff < hys.dwell_epochs:
        return current
    return proposed


def m4_policy_step(rnl_per_interface, current: int, margin: float) -> int:
    """Move to the lowest-load interface when its advantage beats `margin`
    (in seconds). Stays put while any estimator is still warming up."""
    if any(v is None for v in rnl_per_interface):
        return current
    target = int(np.argmin(rnl_per_interface))
    if target == current:
        return current
    if rnl_per_interface[current] - rnl_per_interface[target] > margin:
        return target
    return current


def naive_policy_step(delays, current: int) -> int:
    """Weighted-QoS scoring on delay alone: each interface scores the
    reciprocal of its delay; pick the argmax, ties stay on the current
    interface."""
    scores = []
    for delay in delays:
        if delay <= 0.0:
            raise DomainError("delay must be > 0")
        scores.append(1.0 / delay)
    best = max(scores)
    if scores[current] == best:
        return current
    return int(np.argmax(scores))


def oracle_policy(per_interface_states, start: int | None = None) -> list[int]:
    """Offline minimal-handoff interface sequence that sits on a best-state
    interface at every epoch.

    `per_interface_states` holds one QoE-state sequence per interface.
    With `start` given, the first epoch counts a handoff if it forces a
    move off that interface; otherwise the starting interface is free.
    """
    states = [list(s) for s in per_interface_states]
    n_if = len(states)
    horizon = len(states[0])
    if any(len(s) != horizon for s in states):
        raise DomainError("per-interface state sequences must share a length")
    best_sets = []
    for t in range(horizon):
        top = max(states[i][t] for i in range(n_if))
        best_sets.append([i for i in range(n_if) if states[i][t] == top])

    INF = float("inf")
    cost = [INF] * n_if
    choice: list[list[int | None]] = []
    for i in best_sets[0]:
        cost[i] = 0 if (start is None or i == start) else 1
    choice.append([None] * n_if)
    for t in range(1, horizon):
        nxt = [INF] * n_if
        back: list[int | None] = [None] * n_if
        for i in best_sets[t]:
            for j in best_sets[t - 1]:
                c = cost[j] + (0 if i == j else 1)
                if c < nxt[i] or (c == nxt[i] and j == i):
                    nxt[i] = c
                    back[i] = j
        cost = nxt
        choice.append(back)

    end = min(best_sets[-1], key=lambda i: (cost[i], i))
    path = [end]
    for t in range(horizon - 1, 0, -1):
        path.append(choice[t][path[-1]])
    path.reverse()
    return path


def count_handoffs(path, start: int | None = None) -> int:
    switches = sum(1 for a, b in zip(path, path[1:]) if a != b)
    if start is not None and path and path[0] != start:
        switches += 1
    return switches


def exhaustive_min_handoffs(per_interface_states, start: int | None = None) -> int:
    """Brute-force reference for `oracle_policy` on short traces."""
    states = [list(s) for s in per_interface_states]
    n_if = len(states)
    horizon = len(states[0])
    best_sets = [
        [i for i in range(n_if)
         if states[i][t] == max(states[j][t] for j in range(n_if))]
        for t in range(horizon)
    ]
    best = None
    for combo in itertools.product(*best_sets):
        c = count_handoffs(combo, start)
        if best is None or c < best:
            best = c
    return best


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
