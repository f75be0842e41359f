"""Command-line front end.

Subcommands:
  simulate          generate scenario runs and persist them as trace CSV
  train-hmm         fit a delay HMM to traces and cross-validate prediction
  predict           one-step state predictions for traces under a model
  compare-policies  evaluate handoff policies over a shared run set
  report            merge report JSON files into a summary CSV

Exit codes: 0 success, 2 usage/config error or a named file that cannot be
opened or written, 3 data validation error (including input that is not
UTF-8 text).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from pathlib import Path

import numpy as np

from . import harness, netsim, trace_io
from .errors import (DocumentError, DomainError, TraceParseError,
                     TraceValidationError, ZeroProbabilityError, parse_document,
                     read_document_text)
from .hmm import (EmConfig, cross_validate_folds, forward_filter, inference,
                  load_model, predict_next_bands, save_model)
from .hmm.inference import length_blocks
# Unused here; kept bound because perfbench/tracer.py patches these names.
from .hmm import em_train  # noqa: F401
from .hmm.inference import predict_next_state  # noqa: F401
from .qoe_model import CODECS, CONGESTION_SCHEME, ROAMING_SCHEME

EXIT_USAGE = 2
EXIT_DATA = 3

SCHEMES = {"congestion": CONGESTION_SCHEME, "roaming": ROAMING_SCHEME}


def _scenario_from_args(args) -> netsim.ScenarioConfig:
    """The scenario from its factory, given only the settings that flags set;
    the rest, such as the codec its channels are calibrated for, default."""
    settings = {"codec": None if args.codec is None else CODECS[args.codec],
                "duration_epochs": args.duration, "runs": args.runs, "seed": args.seed}
    return netsim.scenario_factory(args.scenario)(
        **{key: value for key, value in settings.items() if value is not None})


def _run_id(run_index: int) -> str:
    return f"run{run_index:03d}"


def cmd_simulate(args) -> int:
    scenario = _scenario_from_args(args)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    labels = [ch.label for ch in scenario.channels]
    # Runs are generated in the order their traces sort in (run1000 sorts
    # between run100 and run101), so each block's rows are rendered from
    # its arrays and written as soon as the block exists; the MOS sums are
    # added in run order afterwards, so the summary's means do not depend
    # on the write order.
    run_mos_sums = np.empty((scenario.runs, len(labels)))
    trace_path = out_dir / "traces.csv"
    with open(trace_path, "wb") as fh:
        fh.write(",".join(trace_io.HEADER).encode() + b"\n")
        for block in netsim.run_blocks(scenario,
                                       sorted(range(scenario.runs), key=_run_id)):
            run_mos_sums[list(block.run_indices)] = block.mos.sum(axis=2)
            fh.write(trace_io.block_rows([_run_id(r) for r in block.run_indices],
                                         labels, block.delays_s, block.mos))
    mos_sums = np.zeros(len(labels))
    for sums in run_mos_sums:
        mos_sums += sums
    epochs = scenario.runs * scenario.duration_epochs
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


def _read_trace_file(path) -> list[trace_io.DelayTrace]:
    """The traces of a trace CSV, parsed from the open file as it is read."""
    with open(path, newline="", encoding="utf-8") as fh:
        return trace_io.read_traces(fh)


def _load_dataset(path):
    """(rtts, mos) arrays of each trace in a trace CSV, and the traces;
    every mos cell must be set, and some trace must hold the two samples
    that one transition needs."""
    traces = _read_trace_file(path)
    for trace in traces:
        if np.isnan(trace.mos).any():
            raise TraceValidationError(
                f"run {trace.run_id}/{trace.interface_label}: mos column required here")
    dataset = [(trace.rtt_s, trace.mos) for trace in traces]
    if not any(rtts.size >= 2 for rtts, _ in dataset):
        raise TraceValidationError(f"{path}: no trace holds two or more samples")
    return dataset, traces


def cmd_train_hmm(args) -> int:
    if args.folds < 2:
        raise DomainError("folds must be >= 2")
    if args.states < 1:
        raise DomainError("states must be >= 1")
    scheme = SCHEMES[args.scheme]
    config = EmConfig(seed=args.seed)
    dataset, traces = _load_dataset(args.traces)
    # Folds hold out whole runs. Traces sort by (run, interface), so folds
    # by trace index would hold out one interface of each run and score it
    # under a model fitted to the others.
    try:
        (model, report), scores = cross_validate_folds(
            dataset, args.folds, args.states, scheme, config,
            groups=[trace.run_id for trace in traces])
    except ZeroProbabilityError as exc:
        trace = traces[exc.row]
        raise TraceValidationError(
            f"{args.traces}: run {trace.run_id}/{trace.interface_label} epoch "
            f"{trace.epochs[exc.observation]} has zero predicted probability under "
            "a cross-validation fold's model") from None
    except DomainError as exc:
        # The arguments are valid, so the file's data cannot support them:
        # too few runs for the folds, or too few distinct delays for the states.
        raise TraceValidationError(f"{args.traces}: {exc}") from None
    for i, (c, t) in enumerate(scores):
        # A fold whose held-out traces hold one sample each scores nothing.
        accuracy = f"{c / t:.4f}" if t else "n/a"
        print(f"fold {i + 1}: accuracy {accuracy} ({c}/{t})")
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


def _chunks(traces, budget: int):
    """`traces` in order, as consecutive lists of at most `budget` samples
    each; a trace longer than the budget is a chunk of its own."""
    chunk, size = [], 0
    for trace in traces:
        if chunk and size + trace.rtt_s.size > budget:
            yield chunk
            chunk, size = [], 0
        chunk.append(trace)
        size += trace.rtt_s.size
    if chunk:
        yield chunk


def _prediction_rows(model, traces):
    """The predictions.csv rows of `traces`, in their order, in chunks of
    bytes; each group of equal-length traces is filtered in one `forward_filter`
    call. A model file carries no band table, so each state is its own band."""
    states = [None] * len(traces)
    for ids, block in length_blocks([trace.rtt_s for trace in traces]):
        try:
            beliefs, _ = forward_filter(model, block)
        except ZeroProbabilityError as exc:
            trace = traces[ids[exc.row]]
            epoch = trace.epochs[exc.observation]
            raise TraceValidationError(
                f"run {trace.run_id}/{trace.interface_label} observation "
                f"{exc.observation} (epoch {epoch}) has zero predicted probability "
                "under the model") from None
        bands = predict_next_bands(model, beliefs[:, :-1], np.eye(model.n_states))
        for i, row in zip(ids, bands):
            states[i] = row
    return trace_io.trace_rows([(trace.run_id, trace.interface_label) for trace in traces],
                               [trace.epochs.size - 1 for trace in traces],
                               np.concatenate([trace.epochs[1:] for trace in traces]),
                               np.concatenate(states))


def cmd_predict(args) -> int:
    model = load_model(args.model)
    traces = _read_trace_file(args.traces)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    out_path = out_dir / "predictions.csv"
    # Each chunk's rows are written before the next chunk is filtered, so
    # a failure can come after earlier rows are on disk: remove them.
    fh = open(out_path, "wb")
    try:
        with fh:
            fh.write(b"run_id,interface,epoch,predicted_state\n")
            for chunk in _chunks(traces, inference.FILTER_CHUNK_SAMPLES):
                fh.writelines(_prediction_rows(model, chunk))
    except BaseException:
        out_path.unlink(missing_ok=True)
        raise
    print(f"wrote {out_path}")
    return 0


def cmd_compare_policies(args) -> int:
    flags = {"seed": args.seed, "runs": args.runs, "duration_epochs": args.duration}
    if args.config:
        if any(value is not None for value in flags.values()):
            print("error: --seed, --runs and --duration cannot be combined with "
                  "--config; set them in its [scenario] section", file=sys.stderr)
            return EXIT_USAGE
        cfg = harness.load_config(args.config)
    else:
        cfg = harness.default_roaming_harness(**flags)
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
    whose MOS the report kept, one block of rows per (policy, run)."""
    labels = [ch.label for ch in cfg.scenario.channels]
    runs, _, epochs = report.mos.shape
    # One MOS column's cells per interface, its rows (run, epoch) in order,
    # rendered once for all policies, RENDER_ROWS values at a time.
    step = trace_io.RENDER_ROWS
    mos_cells = [np.concatenate([trace_io.csv_cells(column[a:a + step])
                                 for a in range(0, len(column), step)])
                 for column in report.mos.transpose(1, 0, 2).reshape(len(labels), -1)]
    header = io.StringIO()
    csv.writer(header, lineterminator="\n").writerow(
        ["policy", "run", "epoch"] + [f"mos_{l}" for l in labels]
        + ["chosen_interface", "cumulative_handoffs"])
    with open(path, "wb") as fh:
        fh.write(header.getvalue().encode())
        for name, result in report.policies.items():
            paths = result.paths
            handoffs = np.cumsum(np.diff(paths, axis=1, prepend=paths[:, :1]) != 0, axis=1)
            fh.writelines(trace_io.trace_rows(
                [(name, r) for r in range(runs)], epochs, np.tile(np.arange(epochs), runs),
                *mos_cells, paths.ravel(), handoffs.ravel()))


def _report_row(path) -> dict:
    """One summary row from a report file; DocumentError when malformed."""
    doc = parse_document(read_document_text(path, f"report {path}"), f"report {path}")
    metadata = doc.get("metadata", {})
    policies = doc.get("policies", {})
    if not isinstance(metadata, dict) or not isinstance(policies, dict):
        raise DocumentError(f"report {path}: metadata and policies must be objects")
    # A null or missing value is an empty cell; a JSON bool is no number.
    row = {"source": str(path)}
    for key, kind in (("scenario", str), ("codec", str), ("seed", int)):
        row[key] = metadata.get(key)
        if row[key] is not None and type(row[key]) is not kind:
            raise DocumentError(f"report {path}: metadata {key} must be "
                                f"{'a string' if kind is str else 'an integer'} or null")
    for policy in harness.ALL_POLICIES:
        entry = policies.get(policy)
        if entry is None:
            row[f"{policy}_handoffs"] = row[f"{policy}_mean_mos"] = ""
        elif not (isinstance(entry, dict) and type(entry.get("handoff_count")) is int
                  and type(entry.get("mean_mos")) in (int, float)):
            raise DocumentError(f"report {path}: policy {policy!r} must be an object "
                                "with an integer handoff_count and a numeric mean_mos")
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
                   help="default: the one the scenario's channels are calibrated for")
    p.add_argument("--runs", type=int)
    p.add_argument("--duration", type=int)
    p.add_argument("--seed", type=int)
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
    p.add_argument("--seed", type=int, help="not with --config")
    p.add_argument("--runs", type=int, help="not with --config")
    p.add_argument("--duration", type=int, help="not with --config")
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
    except (DomainError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
