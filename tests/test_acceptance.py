"""Acceptance suite: one test per release criterion.

Each test prints a single pass/fail line so a full run reads as a
checklist. Tolerances and case counts are part of the release contract;
do not loosen them without revisiting the calibration notes.
"""

import itertools

import numpy as np

from qoehandoff.cli import main
from qoehandoff.harness import default_roaming_harness, run_comparison
from qoehandoff.hmm import (EmConfig, cross_validate_folds, em_train,
                            forward_filter, prediction_accuracy)
from qoehandoff.hmm.em import _run_em, state_band_map
from qoehandoff.hmm.model import GaussianEmission, HmmModel
from qoehandoff.netsim import (congestion_wlan_g711_model,
                               roaming_cdma_g729_model)
from qoehandoff.policies import (JointState, QLearningConfig, QTable,
                                 count_handoffs, exhaustive_min_handoffs,
                                 oracle_policy, q_star, q_update, reward,
                                 value_iteration, RewardConfig)
from qoehandoff.probing import ProbeConfig, RnlEstimator, rnl_update, \
    signaling_overhead_bps
from qoehandoff.qoe_model import G729, ROAMING_SCHEME, mos_from_delay
from test_hmm_em import sample_chain as _sample_chain


def _verdict(number: int, description: str, ok: bool) -> None:
    print(f"criterion {number:2d} [{'PASS' if ok else 'FAIL'}] {description}")
    assert ok, f"criterion {number} failed: {description}"


def test_criterion_01_em_monotonicity():
    """Log-likelihood never drops across EM iterations (100 seeded fits)."""
    worst_drop = 0.0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        means = np.sort(rng.uniform(0.0, 1.0, 3))[::-1]
        states = rng.integers(0, 3, 200)
        data = rng.normal(means[states], 0.05)
        _, report = em_train([data], 3, EmConfig(restarts=2, max_iterations=25,
                                                 seed=seed))
        ll = report.log_likelihoods
        drops = [a - b for a, b in zip(ll, ll[1:])]
        if drops:
            worst_drop = max(worst_drop, max(drops))
    _verdict(1, f"EM log-likelihood monotone (worst drop {worst_drop:.2e})",
             worst_drop <= 1e-9)


def test_criterion_02_forward_filter_oracle():
    """Filtered beliefs equal brute-force path enumeration (L-inf 1e-9)."""
    rng = np.random.default_rng(1234)
    worst = 0.0
    for n in (2, 3):
        for length in range(1, 7):
            for _ in range(4):
                prior = rng.dirichlet(np.ones(n))
                tm = rng.dirichlet(np.ones(n), size=n)
                means = np.sort(rng.uniform(0, 1, n))[::-1]
                variances = rng.uniform(0.01, 0.1, n)
                model = HmmModel(prior, tm,
                                 tuple(GaussianEmission(float(m), float(v))
                                       for m, v in zip(means, variances)))
                obs = rng.uniform(0, 1, length)
                beliefs, _ = forward_filter(model, obs)
                dens = np.exp(model.frame_log_likelihood(obs))
                for t in range(length):
                    post = np.zeros(n)
                    for path in itertools.product(range(n), repeat=t + 1):
                        p = prior[path[0]] * dens[0, path[0]]
                        for u in range(1, t + 1):
                            p *= tm[path[u - 1], path[u]] * dens[u, path[u]]
                        post[path[t]] += p
                    post /= post.sum()
                    worst = max(worst, float(np.abs(post - beliefs[t]).max()))
    _verdict(2, f"forward filter matches path enumeration (L-inf {worst:.2e})",
             worst <= 1e-9)


def test_criterion_03_parameter_recovery():
    """em_train re-finds the 3-state congestion generator on >= 9/10 seeds.

    The reference is EM started at the generating parameters (the MLE in
    the truth basin): at 10x101 epochs the rarest state's row has more
    sampling noise than the 0.05 band allows against the nominal matrix.
    """
    true = congestion_wlan_g711_model()
    passed = 0
    for seed in range(10):
        rng = np.random.default_rng([seed, 77])
        seqs = [_sample_chain(true, 101, rng)[1] for _ in range(10)]
        _, ref, _, _ = _run_em(seqs, true.means().copy(),
                               true.variances().copy(), true.prior.copy(),
                               true.transitions.copy(), EmConfig())
        _, m_ref, _, _, tm_ref = ref
        order = np.argsort(-m_ref)
        m_ref, tm_ref = m_ref[order], tm_ref[np.ix_(order, order)]
        model, _ = em_train(seqs, 3, EmConfig(seed=seed))
        rel = np.abs(model.means() - m_ref) / np.abs(m_ref)
        l1 = np.abs(model.transitions - tm_ref).sum(axis=1)
        if (rel <= 0.10).all() and (l1 <= 0.05).all():
            passed += 1
    _verdict(3, f"parameter recovery on {passed}/10 seeds", passed >= 9)


def test_criterion_04_prediction_near_bayes():
    """Cross-validated accuracy within 2 pp of the true-model predictor."""
    true = roaming_cdma_g729_model()
    rng = np.random.default_rng(2024)
    dataset = []
    for _ in range(12):
        _, rtt = _sample_chain(true, 101, rng)
        rtt = np.clip(rtt, 1e-3, None)
        mos = np.array([mos_from_delay(r / 2.0, 0.0, G729) for r in rtt])
        dataset.append((rtt, mos))
    bayes_map = state_band_map(true, dataset, ROAMING_SCHEME)
    correct, total = prediction_accuracy(true, dataset, ROAMING_SCHEME,
                                         bayes_map)
    phi_bayes = correct / total
    _, scores = cross_validate_folds(dataset, 2, 3, ROAMING_SCHEME, EmConfig(seed=0))
    phi_cv = sum(c for c, _ in scores) / sum(t for _, t in scores)
    gap = abs(phi_cv - phi_bayes)
    _verdict(4, f"CV accuracy {phi_cv:.4f} vs Bayes {phi_bayes:.4f} "
                f"(gap {100 * gap:.2f} pp)", gap <= 0.02)


def test_criterion_05_load_metric_golden():
    """Load recursion matches the hand-derived 5-sample fixture to 1e-12."""
    rtts = [0.10, 0.20, 0.10, 0.10, 0.30]
    golden = [0.10, 0.12, 0.616, 0.5128, 0.67024]
    est = RnlEstimator(h=5, c=5.0)
    ok = True
    for rtt, expected in zip(rtts, golden):
        est, value = rnl_update(est, rtt)
        ok = ok and abs(value - expected) <= 1e-12
    # Constant input is a fixed point (dyadic values: exact float algebra).
    fixed = RnlEstimator(h=4, c=5.0)
    ok = ok and all(fixed.update(0.25) == 0.25 for _ in range(10))
    # c=0 strips the jitter term.
    plain = RnlEstimator(h=5, c=0.0)
    z = [plain.update(r) for r in rtts]
    ok = ok and abs(z[-1] - 0.15024) <= 1e-12
    _verdict(5, "load metric golden recursion and reductions", ok)


def test_criterion_06_reward_boundaries():
    """Clamp cases are exactly 1.0/0.0; the midpoint is 0.5."""
    cfg = RewardConfig()
    cost_cfg = RewardConfig(w_qoe=0.0)
    ok = (reward(5.0, 0.0, cfg) == 1.0
          and reward(1.0, 0.0, cfg) == 0.0
          and abs(reward(3.0, 0.0, cfg) - 0.5) <= 1e-12
          and reward(3.0, 0.0, cost_cfg) == 1.0
          and reward(3.0, 1.0, cost_cfg) == 0.0
          and abs(reward(3.0, 0.5, cost_cfg) - 0.5) <= 1e-12)
    _verdict(6, "reward boundary exactness", ok)


def test_criterion_07_q_learning_vs_bellman():
    """Tabular Q with inverse-visit steps reaches Q* on the fixed MDP."""
    S, A, gamma = 6, 2, 0.5
    rng = np.random.default_rng(42)
    tm = rng.dirichlet(np.ones(S), size=(A, S))
    rewards = rng.uniform(0.0, 1.0, size=S)
    optimal = q_star(tm, rewards, gamma, tol=1e-10)
    u, _ = value_iteration(tm, rewards, gamma, tol=1e-10)

    # The 6 MDP states are embedded in the joint-state table as
    # (band in 1..3, fixed second band, attachment in 0..1).
    def joint(s):
        return JointState((s % 3 + 1, 1), s // 3).index(3)

    table = QTable(3, 2)
    cfg = QLearningConfig(alpha=1.0, gamma=gamma, alpha_decay="inverse_visit")
    behavior = np.random.default_rng(7)
    s = 0
    for _ in range(100_000):
        a = int(behavior.integers(A))
        s_next = int(behavior.choice(S, p=tm[a, s]))
        q_update(table, joint(s), a, float(rewards[s]), joint(s_next), cfg)
        s = s_next
    learned = np.array([[table.values[joint(st), a]
                         for a in range(A)] for st in range(S)])
    err = float(np.abs(learned - optimal).max())
    u_err = float(np.abs(learned.max(axis=1) - u).max())
    _verdict(7, f"Q vs Q* max error {err:.4f}, U identity error {u_err:.4f}",
             err < 0.05 and u_err < 0.05)


def test_criterion_08_handoff_reduction():
    """The learned policy cuts handoffs vs both baselines at equal QoE."""
    report = run_comparison(default_roaming_harness(seed=0, runs=12))
    proposed = report.policies["proposed"]
    naive = report.policies["naive"]
    m4 = report.policies["m4"]
    ok = (proposed.handoff_count <= 0.60 * m4.handoff_count
          and proposed.handoff_count <= 0.55 * naive.handoff_count
          and proposed.mean_mos >= naive.mean_mos - 0.1)
    _verdict(8, f"handoffs proposed {proposed.handoff_count} vs "
                f"m4 {m4.handoff_count} / naive {naive.handoff_count}; "
                f"mean MOS {proposed.mean_mos:.3f} vs naive "
                f"{naive.mean_mos:.3f}", ok)


def test_criterion_09_oracle_policy_optimality():
    """DP oracle equals exhaustive search on 200 randomized short traces."""
    rng = np.random.default_rng(2718)
    ok = True
    for _ in range(200):
        length = int(rng.integers(2, 11))
        states = [rng.integers(1, 4, length).tolist() for _ in range(2)]
        start = int(rng.integers(0, 2)) if rng.random() < 0.5 else None
        path = oracle_policy(states, start=start)
        on_best = all(states[i][t] == max(states[0][t], states[1][t])
                      for t, i in enumerate(path))
        minimal = count_handoffs(path, start) == \
            exhaustive_min_handoffs(states, start)
        ok = ok and on_best and minimal
    _verdict(9, "DP oracle minimal on 200 randomized cases", ok)


def test_criterion_10_end_to_end_determinism(tmp_path):
    """compare-policies is byte-identical across invocations."""
    cfg = tmp_path / "fast.ini"
    cfg.write_text("[scenario]\nkind = roaming\nruns = 2\n"
                   "duration_epochs = 40\nseed = 0\n\n"
                   "[harness]\ntraining_episodes = 8\nhmm_training_runs = 4\n")
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["compare-policies", "--config", str(cfg),
                 "--out", str(out_a)]) == 0
    assert main(["compare-policies", "--config", str(cfg),
                 "--out", str(out_b)]) == 0
    same = (out_a / "report.json").read_bytes() == \
        (out_b / "report.json").read_bytes()
    _verdict(10, "byte-identical comparison reports", same)


def test_criterion_11_probe_overhead():
    """Default probe schedule reports exactly 960 bps."""
    bps = signaling_overhead_bps(ProbeConfig(probes_per_second=5,
                                             ba_packet_bytes=24))
    _verdict(11, f"signaling overhead {bps} bps", bps == 960)
