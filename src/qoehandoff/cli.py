"""Command-line front end.

Subcommands:
  simulate          generate scenario runs and persist them as trace CSV
  train-hmm         fit a delay HMM to traces and cross-validate prediction
  predict           one-step state predictions for traces under a model
  compare-policies  evaluate handoff policies over a shared run set
  report            merge report JSON files into a summary CSV

Exit codes: 0 success, 2 usage/config error, 3 data validation error.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np

from . import harness, netsim, trace_io
from .errors import (DocumentError, DomainError, TraceParseError,
                     TraceValidationError, ZeroProbabilityError, parse_document)
from .hmm import (EmConfig, cross_validate_folds, forward_filter, load_model,
                  save_model)
from .hmm.inference import length_blocks, predict_next_states
# Unused here; kept bound because perfbench/tracer.py patches these names.
from .hmm import em_train  # noqa: F401
from .hmm.inference import predict_next_state  # noqa: F401
from .qoe_model import CODECS, CONGESTION_SCHEME, ROAMING_SCHEME

EXIT_USAGE = 2
EXIT_DATA = 3

SCHEMES = {"congestion": CONGESTION_SCHEME, "roaming": ROAMING_SCHEME}


def _scenario_from_args(args) -> netsim.ScenarioConfig:
    """The scenario's factory settings; a codec only when `--codec` is given,
    so each scenario keeps the codec its channels are calibrated for."""
    factory = netsim.roaming_scenario if args.scenario == "roaming" \
        else netsim.congestion_scenario
    codec = {} if args.codec is None else {"codec": CODECS[args.codec]}
    return factory(duration_epochs=args.duration, runs=args.runs, seed=args.seed,
                   **codec)


def cmd_simulate(args) -> int:
    scenario = _scenario_from_args(args)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    labels = [ch.label for ch in scenario.channels]
    traces = []
    mos_sums = np.zeros(len(labels))
    epochs = 0
    for block in netsim.run_blocks(scenario, range(scenario.runs)):
        for run, run_mos_sums in zip(block.runs, block.mos.sum(axis=2)):
            traces.extend(trace_io.traces_from_run(
                run, labels, run_id=f"run{run.run_index:03d}"))
            mos_sums += run_mos_sums
            epochs += run.duration
    trace_path = out_dir / "traces.csv"
    trace_path.write_text(trace_io.write_traces(traces), encoding="utf-8")
    summary = {
        "scenario": scenario.kind,
        "codec": scenario.codec.name,
        "seed": scenario.seed,
        "runs": scenario.runs,
        "duration_epochs": scenario.duration_epochs,
        "mean_mos_per_interface": {label: mos_sums[i] / epochs
                                   for i, label in enumerate(labels)},
    }
    (out_dir / "summary.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    for label in labels:
        print(f"{label}: mean MOS {summary['mean_mos_per_interface'][label]:.3f}")
    print(f"wrote {trace_path}")
    return 0


def _load_dataset(path):
    """(rtts, mos) arrays of each trace in a trace CSV; every mos cell must
    be set."""
    dataset = []
    for trace in trace_io.read_traces(Path(path).read_bytes()):
        if np.isnan(trace.mos).any():
            raise TraceValidationError(
                f"run {trace.run_id}/{trace.interface_label}: mos column required here")
        dataset.append((trace.rtt_s, trace.mos))
    return dataset


def cmd_train_hmm(args) -> int:
    scheme = SCHEMES[args.scheme]
    dataset = _load_dataset(args.traces)
    config = EmConfig(seed=args.seed)
    (model, report), scores = cross_validate_folds(dataset, args.folds, args.states,
                                                   scheme, config)
    for i, (c, t) in enumerate(scores):
        print(f"fold {i + 1}: accuracy {c / t:.4f} ({c}/{t})")
    total_c = sum(c for c, _ in scores)
    total_t = sum(t for _, t in scores)
    print(f"mean accuracy: {total_c / total_t:.4f}")
    print(f"final log-likelihood: {report.log_likelihoods[-1]:.6f} "
          f"({report.iterations} iterations, converged={report.converged}, "
          f"restart {report.restart_index})")
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    model_path = out_dir / "model.json"
    save_model(model, model_path)
    print(f"wrote {model_path}")
    return 0


def cmd_predict(args) -> int:
    model = load_model(args.model)
    traces = trace_io.read_traces(Path(args.traces).read_bytes())
    states = [None] * len(traces)
    for ids, block in length_blocks([trace.rtt_s for trace in traces]):
        try:
            beliefs, _ = forward_filter(model, block)
        except ZeroProbabilityError as exc:
            trace = traces[ids[exc.row]]
            epoch = trace.epochs[exc.observation]
            raise DomainError(
                f"run {trace.run_id}/{trace.interface_label} observation "
                f"{exc.observation} (epoch {epoch}) has zero predicted probability "
                "under the model") from None
        for i, row in zip(ids, predict_next_states(model, beliefs[:, :-1]).tolist()):
            states[i] = row
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    out_path = out_dir / "predictions.csv"
    with open(out_path, "w", newline="", encoding="utf-8") as fh:
        fh.write("run_id,interface,epoch,predicted_state\n")
        for trace, predicted in zip(traces, states):
            fh.write(trace_io.format_rows([trace.run_id, trace.interface_label], "%d,%d",
                                          (trace.epochs[1:].tolist(), predicted)))
    print(f"wrote {out_path}")
    return 0


def cmd_compare_policies(args) -> int:
    overrides = {"seed": args.seed, "runs": args.runs,
                 "duration_epochs": args.duration}
    overrides = {key: value for key, value in overrides.items() if value is not None}
    if args.config:
        if overrides:
            print("error: --seed, --runs and --duration cannot be combined with "
                  "--config; set them in its [scenario] section", file=sys.stderr)
            return EXIT_USAGE
        cfg = harness.load_config(args.config)
    else:
        cfg = harness.default_roaming_harness(**overrides)
    report = harness.run_comparison(cfg)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    report_path = out_dir / "report.json"
    report_path.write_text(report.to_json(), encoding="utf-8")
    if args.timeline:
        _write_timelines(cfg, report, out_dir / "timeline.csv")
    for name, result in report.policies.items():
        print(f"{name:>8}: handoffs {result.handoff_count:4d}  "
              f"mean MOS {result.mean_mos:.3f}")
    for baseline, red in report.reductions().items():
        print(f"reduction vs {baseline}: "
              + ("—" if red is None else f"{100 * red:.2f}%"))
    print(f"wrote {report_path}")
    return 0


def _write_timelines(cfg, report, path) -> None:
    """Plot-ready per-epoch rows for each policy over the evaluation runs
    that the report kept."""
    labels = [ch.label for ch in cfg.scenario.channels]
    # mos_cells[r][t]: run r's MOS columns at epoch t, formatted once.
    mos_cells = [[[format(m, ".9g") for m in epoch]
                  for epoch in np.asarray(run.mos).T.tolist()]
                 for run in report.runs]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["policy", "run", "epoch"]
                        + [f"mos_{l}" for l in labels]
                        + ["chosen_interface", "cumulative_handoffs"])
        for name, result in report.policies.items():
            for r, path_seq in enumerate(result.paths):
                cum = 0
                for t, (chosen, cells) in enumerate(zip(path_seq, mos_cells[r])):
                    cum += t > 0 and chosen != path_seq[t - 1]
                    writer.writerow([name, r, t, *cells, chosen, cum])


def _report_row(path) -> dict:
    """One summary row from a report file; DocumentError when malformed."""
    doc = parse_document(Path(path).read_text(encoding="utf-8"), f"report {path}")
    metadata = doc.get("metadata", {})
    policies = doc.get("policies", {})
    if not isinstance(metadata, dict) or not isinstance(policies, dict):
        raise DocumentError(f"report {path}: metadata and policies must be objects")
    row = {"source": str(path)}
    for key in ("scenario", "codec", "seed"):
        row[key] = metadata.get(key)
    for policy in harness.ALL_POLICIES:
        entry = policies.get(policy)
        if not entry:
            row[f"{policy}_handoffs"] = row[f"{policy}_mean_mos"] = ""
        elif not (isinstance(entry, dict)
                  and {"handoff_count", "mean_mos"} <= entry.keys()):
            raise DocumentError(f"report {path}: policy {policy!r} needs "
                                "handoff_count and mean_mos")
        else:
            row[f"{policy}_handoffs"] = entry["handoff_count"]
            row[f"{policy}_mean_mos"] = entry["mean_mos"]
    return row


def cmd_report(args) -> int:
    rows = [_report_row(path) for path in args.reports]
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    out_path = out_dir / "summary.csv"
    fields = ["source", "scenario", "codec", "seed"]
    for policy in harness.ALL_POLICIES:
        fields += [f"{policy}_handoffs", f"{policy}_mean_mos"]
    with open(out_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
    print(f"wrote {out_path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qoehandoff")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate scenario runs as trace CSV")
    p.add_argument("--scenario", choices=["roaming", "wlan_congestion"],
                   default="roaming")
    p.add_argument("--codec", choices=sorted(CODECS),
                   help="default g729 for roaming, g711 for wlan_congestion")
    p.add_argument("--runs", type=int, default=12)
    p.add_argument("--duration", type=int, default=101)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("train-hmm", help="fit a delay HMM and cross-validate")
    p.add_argument("--traces", required=True)
    p.add_argument("--states", type=int, default=3)
    p.add_argument("--folds", type=int, default=2)
    p.add_argument("--scheme", choices=sorted(SCHEMES), default="congestion")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train_hmm)

    p = sub.add_parser("predict", help="one-step state predictions for traces")
    p.add_argument("--model", required=True)
    p.add_argument("--traces", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("compare-policies", help="evaluate handoff policies")
    p.add_argument("--config")
    p.add_argument("--seed", type=int, help="default 0; not with --config")
    p.add_argument("--runs", type=int, help="default 12; not with --config")
    p.add_argument("--duration", type=int, help="default 101; not with --config")
    p.add_argument("--timeline", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_compare_policies)

    p = sub.add_parser("report", help="merge report JSON files")
    p.add_argument("reports", nargs="*")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (TraceParseError, TraceValidationError, DocumentError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (DomainError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
