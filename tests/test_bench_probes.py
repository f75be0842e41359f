"""The per-layer benchmark patches the program's functions by name
(`perfbench/tracer.py`, `PROBES`); every name it lists must stay bound in
the module it patches, or a traced benchmark run cannot start. And every
benchmark workload's output checks (`perfbench/run.py`) must pass on
the program as it is."""

import ast
import importlib
import importlib.util
import itertools
from pathlib import Path

import pytest

from qoehandoff.cli import main

ROOT = Path(__file__).resolve().parents[1]
TRACER_PATH = ROOT / "perfbench" / "tracer.py"
RUN_PATH = ROOT / "perfbench" / "run.py"
KEPT_BOUND = "kept bound because perfbench/tracer.py patches"

FAST_CONFIG = """
[scenario]
kind = roaming
runs = 2
duration_epochs = 30
seed = 0

[harness]
training_episodes = 4
hmm_training_runs = 1
"""


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def probe_owner(module_name, class_name):
    owner = importlib.import_module(module_name)
    return getattr(owner, class_name) if class_name is not None else owner


def kept_bound_imports():
    """(module, name) of every import in `src/` that is kept only for the
    tracer: the run of `# noqa: F401` import lines under a KEPT_BOUND
    comment."""
    src = ROOT / "src"
    found = []
    for path in sorted(src.rglob("*.py")):
        parts = path.relative_to(src).with_suffix("").parts
        module = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)
        lines = path.read_text(encoding="utf-8").splitlines()
        for i, line in enumerate(lines):
            if KEPT_BOUND not in line:
                continue
            marked = list(itertools.takewhile(
                lambda text: text.endswith("# noqa: F401"), lines[i + 1:]))
            assert marked, f"{path.name}:{i + 1}: no import under the comment"
            for text in marked:
                (statement,) = ast.parse(text).body
                found += [(module, alias.asname or alias.name)
                          for alias in statement.names]
    return found


def test_kept_bound_imports_are_patched():
    # An import kept only for the tracer goes when its probe goes.
    patched = {(module, attr) for module, class_name, attr, _, _
               in load_tracer().PROBES if class_name is None}
    for module, name in kept_bound_imports():
        assert (module, name) in patched, \
            f"{module} keeps {name} bound, but no probe patches it there"


def test_every_probe_is_bound_and_restored():
    tracer = load_tracer()
    originals = []
    for module_name, class_name, attr, _, _ in tracer.PROBES:
        owner = probe_owner(module_name, class_name)
        where = f"{module_name}.{class_name + '.' if class_name else ''}{attr}"
        assert attr in owner.__dict__, f"{where} is no longer bound"
        originals.append((owner, attr, owner.__dict__[attr]))
    t = tracer.Tracer()
    t.install()
    t.uninstall()
    for owner, attr, original in originals:
        assert owner.__dict__[attr] is original


def test_traced_comparison_runs_every_hook(tmp_path):
    tracer = load_tracer()
    cfg = tmp_path / "fast.ini"
    cfg.write_text(FAST_CONFIG)
    t = tracer.Tracer()
    t.install()
    try:
        code = main(["compare-policies", "--config", str(cfg), "--timeline",
                     "--out", str(tmp_path / "out")])
    finally:
        t.uninstall()
    assert code == 0
    # The Q-table is solved from counts: no training episode runs through
    # the agent loop.
    assert t.counts["harness.q_train.episodes"] == 0
    assert t.counts["harness.q_eval.runs"] == 1
    # The features are precomputed per block of runs, and the timeline
    # reuses the evaluation runs. (One HMM training run means no CV, whose
    # scoring would predict beliefs.)
    assert t.calls["hmm.predict_belief"] == 0
    assert t.calls["probing.aggregate_epoch"] == 0
    assert t.counts["netsim.generate_run.repeat_calls"] == 0
    # The m4 baseline updates one load estimate of every run and interface
    # per epoch after the first (30 epochs).
    assert t.calls["probing.rnl_update"] == 29
    # The Q-agent and the oracle each decide for every evaluation run in
    # one call.
    assert t.calls["policies.oracle_policy"] == 1


def load_bench():
    # `run.py` imports its references as `reference`, from its own folder.
    spec = importlib.util.spec_from_file_location("perfbench_run", RUN_PATH)
    module = importlib.util.module_from_spec(spec)
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(RUN_PATH.parent))
        spec.loader.exec_module(module)
    return module


BENCH = load_bench()


@pytest.mark.parametrize("name", sorted(BENCH.WORKLOADS))
def test_bench_workload_passes_its_checks(name, tmp_path, monkeypatch):
    # One set-up and one pass of the job, then the checks the benchmark
    # runs on its last pass.
    monkeypatch.syspath_prepend(str(RUN_PATH.parent))
    q = BENCH.Program()
    wl = BENCH.WORKLOADS[name](0)
    inputs = tmp_path / "inputs"
    inputs.mkdir()
    wl.build(q, inputs)
    _, codes, stdout = BENCH.run_pass(q, wl, tmp_path / "out")
    assert codes and not any(codes)
    assert wl.check(q, tmp_path / "out", stdout) == []
