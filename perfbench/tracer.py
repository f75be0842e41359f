"""In-memory span tracer that wraps the program's functions from outside.

Each probe replaces one function binding in a module (or class) namespace
with a wrapper that records a span: name, start, end and the index of the
enclosing span. The program is not edited; a call goes through a probe
only when its caller looks the function up through a patched binding, so
every binding a caller uses is listed in `PROBES`.

A span's layer is the first part of its name (`hmm.em_train` -> `hmm`).
A layer's self time is the time its spans cover minus the time covered by
their child spans, so the self times of all layers add up to the time of
the root spans (`cli.main`). Work done by code that has no probe (NumPy,
the `csv` module, small helpers) counts to the layer that called it.
"""

from __future__ import annotations

import importlib
from array import array
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np


def _count_iterations(tracer, args, kwargs, result):
    tracer.counts["hmm.em_train.iterations"] += result[1].iterations


def _count_samples(tracer, args, kwargs, result):
    tracer.counts["hmm.forward_filter.samples"] += len(args[1])


def _count_generated(tracer, args, kwargs, result):
    cfg, run_index = args[0], args[1]
    key = (cfg.kind, cfg.seed, cfg.duration_epochs, run_index)
    if key in tracer.generated:
        tracer.counts["netsim.generate_run.repeat_calls"] += 1
    tracer.generated.add(key)


def _count_written(tracer, args, kwargs, result):
    tracer.counts["trace_io.write_traces.rows"] += sum(len(t.samples) for t in args[0])


def _count_read(tracer, args, kwargs, result):
    tracer.counts["trace_io.read_traces.rows"] += sum(len(t.samples) for t in result)


def _q_policy_name(args, kwargs):
    return "harness.q_train" if kwargs.get("train") else "harness.q_eval"


def _count_q_policy(tracer, args, kwargs, result):
    tracer.counts["harness.q_train.episodes" if kwargs.get("train")
                  else "harness.q_eval.runs"] += 1


_POLICY_FUNCTIONS = ("q_update", "epsilon_greedy_action", "exploit_action",
                     "oracle_policy", "m4_policy_step", "naive_policy_step",
                     "reward")

# (module, class or None, attribute, span name, counter hook)
PROBES = [
    ("qoehandoff.cli", None, "main", "cli.main", None),
    # harness entry points reached from cli
    ("qoehandoff.harness", None, "run_comparison", "harness.run_comparison", None),
    ("qoehandoff.harness", None, "load_config", "harness.load_config", None),
    ("qoehandoff.harness", None, "train_interface_models",
     "harness.train_interface_models", None),
    ("qoehandoff.harness", None, "run_q_policy", _q_policy_name, _count_q_policy),
    # netsim
    ("qoehandoff.netsim", None, "generate_run", "netsim.generate_run", _count_generated),
    ("qoehandoff.harness", None, "generate_run", "netsim.generate_run", _count_generated),
    ("qoehandoff.harness", None, "step_environment", "netsim.step_environment", None),
    ("qoehandoff.netsim", None, "roaming_scenario", "netsim.roaming_scenario", None),
    ("qoehandoff.netsim", None, "congestion_scenario", "netsim.congestion_scenario", None),
    # qoe_model
    ("qoehandoff.netsim", None, "mos_from_delay", "qoe_model.mos_from_delay", None),
    ("qoehandoff.harness", None, "mos_from_delay", "qoe_model.mos_from_delay", None),
    ("qoehandoff.netsim", None, "quantize_mos", "qoe_model.quantize_mos", None),
    ("qoehandoff.harness", None, "quantize_mos", "qoe_model.quantize_mos", None),
    ("qoehandoff.hmm.em", None, "quantize_mos", "qoe_model.quantize_mos", None),
    # probing
    ("qoehandoff.harness", None, "aggregate_epoch", "probing.aggregate_epoch", None),
    ("qoehandoff.probing", "RnlEstimator", "update", "probing.rnl_update", None),
    # hmm
    ("qoehandoff.cli", None, "em_train", "hmm.em_train", _count_iterations),
    ("qoehandoff.harness", None, "em_train", "hmm.em_train", _count_iterations),
    ("qoehandoff.hmm.em", None, "em_train", "hmm.em_train", _count_iterations),
    ("qoehandoff.cli", None, "cross_validate_folds", "hmm.cross_validate", None),
    ("qoehandoff.hmm.em", None, "cross_validate_folds", "hmm.cross_validate", None),
    ("qoehandoff.cli", None, "forward_filter", "hmm.forward_filter", _count_samples),
    ("qoehandoff.harness", None, "forward_filter", "hmm.forward_filter", _count_samples),
    ("qoehandoff.hmm.em", None, "forward_filter", "hmm.forward_filter", _count_samples),
    ("qoehandoff.cli", None, "predict_next_state", "hmm.predict_next_state", None),
    ("qoehandoff.hmm.em", None, "predict_next_state", "hmm.predict_next_state", None),
    ("qoehandoff.harness", None, "predict_belief", "hmm.predict_belief", None),
    ("qoehandoff.hmm.inference", None, "predict_belief", "hmm.predict_belief", None),
    ("qoehandoff.hmm.model", "HmmModel", "frame_log_likelihood",
     "hmm.frame_log_likelihood", None),
    ("qoehandoff.cli", None, "load_model", "hmm.load_model", None),
    ("qoehandoff.cli", None, "save_model", "hmm.save_model", None),
    # trace_io
    ("qoehandoff.trace_io", None, "write_traces", "trace_io.write_traces", _count_written),
    ("qoehandoff.trace_io", None, "read_traces", "trace_io.read_traces", _count_read),
    ("qoehandoff.trace_io", None, "traces_from_run", "trace_io.traces_from_run", None),
] + [
    ("qoehandoff.harness", None, fn, f"policies.{fn}", None) for fn in _POLICY_FUNCTIONS
] + [
    # select_action reaches exploit_action through the policies module
    ("qoehandoff.policies", None, "exploit_action", "policies.exploit_action", None),
]


class Tracer:
    """Records spans while installed; `install()` and `uninstall()` patch
    and restore every probe."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack: list[int] = []
        self._child_time: list[float] = []
        self.calls: Counter = Counter()
        self.inclusive: defaultdict = defaultdict(float)
        self.self_time: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.generated: set = set()
        self._undo: list = []

    def _id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrap(self, fn, name, hook):
        tracer = self
        fixed_name = None if callable(name) else name

        def probe(*args, **kwargs):
            span_name = fixed_name or name(args, kwargs)
            idx = len(tracer.start)
            tracer.name_id.append(tracer._id(span_name))
            tracer.parent.append(tracer._stack[-1] if tracer._stack else -1)
            tracer.end.append(0.0)
            tracer._stack.append(idx)
            tracer._child_time.append(0.0)
            t0 = perf_counter()
            tracer.start.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                tracer.end[idx] = t1
                tracer._stack.pop()
                children = tracer._child_time.pop()
                duration = t1 - t0
                if tracer._child_time:
                    tracer._child_time[-1] += duration
                tracer.calls[span_name] += 1
                tracer.inclusive[span_name] += duration
                tracer.self_time[span_name.split(".", 1)[0]] += duration - children
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result

        probe.__wrapped__ = fn
        return probe

    def install(self) -> None:
        for module_name, class_name, attr, name, hook in PROBES:
            owner = importlib.import_module(module_name)
            if class_name is not None:
                owner = getattr(owner, class_name)
            original = owner.__dict__[attr]
            setattr(owner, attr, self._wrap(original, name, hook))
            self._undo.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def new_pass(self) -> None:
        """Repeat detection is per job pass."""
        self.generated.clear()

    def root_seconds(self) -> float:
        return sum(e - s for s, e, p in zip(self.start, self.end, self.parent)
                   if p == -1)

    def save(self, path) -> None:
        """Write every recorded span as arrays (NumPy .npz)."""
        np.savez_compressed(
            path, names=np.array(self.names), name_id=np.frombuffer(self.name_id, "i4"),
            start=np.frombuffer(self.start, "f8"), end=np.frombuffer(self.end, "f8"),
            parent=np.frombuffer(self.parent, "i4"))
