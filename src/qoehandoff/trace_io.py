"""CSV persistence for delay/MOS traces.

Schema: header ``run_id,interface,epoch,rtt_s,mos`` with one sample per
row; the mos cell may be empty. Values are written with 9 significant
digits and reading back a written file restores them at that precision.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

from .errors import TraceParseError, TraceValidationError

HEADER = ["run_id", "interface", "epoch", "rtt_s", "mos"]


@dataclass(frozen=True)
class DelayTrace:
    run_id: str
    interface_label: str
    samples: tuple[tuple[int, float, float | None], ...]  # (epoch, rtt_s, mos)

    def __post_init__(self):
        epochs = [s[0] for s in self.samples]
        if any(b <= a for a, b in zip(epochs, epochs[1:])):
            raise TraceValidationError(
                f"run {self.run_id}/{self.interface_label}: epochs must be strictly increasing")
        for epoch, rtt, mos in self.samples:
            # One chained comparison also rejects nan (never ordered).
            if not 0 < rtt < math.inf:
                raise TraceValidationError(
                    f"run {self.run_id}/{self.interface_label} epoch {epoch}: "
                    "rtt_s must be finite and > 0")
            if mos is not None and not 1.0 <= mos <= 5.0:
                raise TraceValidationError(
                    f"run {self.run_id}/{self.interface_label} epoch {epoch}: mos outside [1, 5]")

    def rtts(self) -> list[float]:
        return [s[1] for s in self.samples]

    def mos_values(self) -> list[float | None]:
        return [s[2] for s in self.samples]


def read_traces(source) -> list[DelayTrace]:
    """Parse traces from a text stream or string, grouped by (run, interface)."""
    if isinstance(source, str):
        source = io.StringIO(source)
    elif isinstance(source, (bytes, bytearray)):
        source = io.StringIO(source.decode("utf-8"))
    reader = csv.reader(source)
    try:
        header = next(reader)
    except StopIteration:
        raise TraceParseError("empty input, expected header row") from None
    if header != HEADER:
        raise TraceParseError(f"expected header {','.join(HEADER)}", line_number=1)

    groups: dict[tuple[str, str], list[tuple[int, float, float | None]]] = {}
    for line_number, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != len(HEADER):
            raise TraceParseError(f"expected {len(HEADER)} fields, got {len(row)}",
                                  line_number)
        run_id, interface, epoch_s, rtt_text, mos_text = row
        try:
            epoch = int(epoch_s)
            rtt = float(rtt_text)
            mos = float(mos_text) if mos_text.strip() else None
        except ValueError as exc:
            raise TraceParseError(str(exc), line_number) from None
        groups.setdefault((run_id, interface), []).append((epoch, rtt, mos))

    return [DelayTrace(run_id=run_id, interface_label=interface,
                       samples=tuple(samples))
            for (run_id, interface), samples in sorted(groups.items())]


def _fmt(value: float) -> str:
    return format(value, ".9g")


def write_traces(traces) -> str:
    """Render traces as canonical CSV text, ordered by (run, interface, epoch)."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(HEADER)
    for trace in sorted(traces, key=lambda t: (t.run_id, t.interface_label)):
        for epoch, rtt, mos in trace.samples:
            writer.writerow([trace.run_id, trace.interface_label, epoch,
                             _fmt(rtt), _fmt(mos) if mos is not None else ""])
    return out.getvalue()


def traces_from_run(run, labels, run_id: str) -> list[DelayTrace]:
    """Package a simulated run's per-interface delays and MOS as traces."""
    traces = []
    for i, label in enumerate(labels):
        samples = tuple(
            (t, float(run.delays_s[i][t]), float(run.mos[i][t]))
            for t in range(run.duration))
        traces.append(DelayTrace(run_id=run_id, interface_label=label,
                                 samples=samples))
    return traces
