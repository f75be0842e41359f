"""CSV persistence for delay/MOS traces.

Schema: header ``run_id,interface,epoch,rtt_s,mos`` with one sample per
row; the mos cell may be empty. Values are written with 9 significant
digits and reading back a written file restores them at that precision.

A trace is held as columns, and files are read and written in
whole-column passes: cells are converted with Python's own `int` and
`float` (so their syntax and error messages are Python's), a slice of
`SLICE_ROWS` rows at a time; each trace's rows are written as one block.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, compress, count, islice
from operator import itemgetter, ne, or_

import numpy as np

from .errors import TraceParseError, TraceValidationError

HEADER = ["run_id", "interface", "epoch", "rtt_s", "mos"]
# Rows converted per column pass: bounds the row strings held at once.
SLICE_ROWS = 512


@dataclass(frozen=True, eq=False)
class DelayTrace:
    """One (run, interface) trace as read-only columns: `epochs` (int64),
    `rtt_s` and `mos` (float64, NaN where the mos cell is empty)."""

    run_id: str
    interface_label: str
    epochs: np.ndarray
    rtt_s: np.ndarray
    mos: np.ndarray

    def __post_init__(self):
        for name, dtype in (("epochs", np.int64), ("rtt_s", float), ("mos", float)):
            column = np.asarray(getattr(self, name), dtype=dtype).view()
            column.flags.writeable = False
            object.__setattr__(self, name, column)
        epochs, rtt, mos = self.epochs, self.rtt_s, self.mos
        where = f"run {self.run_id}/{self.interface_label}"
        if (epochs[1:] <= epochs[:-1]).any():
            raise TraceValidationError(f"{where}: epochs must be strictly increasing")
        # The rtt test also rejects nan (never ordered); a nan mos is an
        # empty cell, so only set values are range-checked.
        bad_rtt = ~((rtt > 0) & (rtt < np.inf))
        bad = bad_rtt | (mos < 1.0) | (mos > 5.0)
        if bad.any():
            i = int(bad.argmax())
            what = "rtt_s must be finite and > 0" if bad_rtt[i] else "mos outside [1, 5]"
            raise TraceValidationError(f"{where} epoch {epochs[i]}: {what}")

    @cached_property
    def samples(self) -> tuple[tuple[int, float, float | None], ...]:
        """(epoch, rtt_s, mos) per sample, mos None where its cell is empty."""
        return tuple(zip(self.epochs.tolist(), self.rtts(), self.mos_values()))

    def rtts(self) -> list[float]:
        return self.rtt_s.tolist()

    def mos_values(self) -> list[float | None]:
        return [None if m != m else m for m in self.mos.tolist()]


def _columns(rows):
    """(run_ids, interfaces, epochs, rtts, mos) of rows of five cells;
    ValueError or OverflowError when a cell does not convert."""
    run_ids, interfaces, epoch_cells, rtt_cells, mos_cells = zip(*rows)
    epochs = np.fromiter(map(int, epoch_cells), np.int64, len(rows))
    rtts = np.fromiter(map(float, rtt_cells), float, len(rows))
    filled = np.fromiter(map(bool, map(str.strip, mos_cells)), bool, len(rows))
    values = np.fromiter(map(float, compress(mos_cells, filled)), float)
    # A literal nan cell is not an empty one: make it fail the range check.
    values[np.isnan(values)] = np.inf
    mos = np.full(len(rows), np.nan)
    mos[filled] = values
    return run_ids, interfaces, epochs, rtts, mos


def _check_row(row, line_number) -> None:
    """Raise TraceParseError, naming `line_number`, if the row is malformed."""
    if len(row) != len(HEADER):
        raise TraceParseError(f"expected {len(HEADER)} fields, got {len(row)}",
                              line_number)
    try:
        _columns([row])
    except ValueError as exc:
        raise TraceParseError(str(exc), line_number) from None
    except OverflowError:  # only an epoch beyond int64 overflows
        raise TraceParseError(f"epoch {int(row[2])} out of range", line_number) from None


def _segments(chunk, first_line):
    """((run_id, interface), [epochs, rtts, mos]) for each run of rows with
    one key in a slice of rows, the first on line `first_line`; blank rows
    are skipped."""
    rows = list(filter(None, chunk))
    if not rows:
        return []
    try:
        if set(map(len, rows)) != {len(HEADER)}:
            raise ValueError("a row has the wrong number of fields")
        run_ids, interfaces, *columns = _columns(rows)
    except (ValueError, OverflowError) as exc:
        # Some row is malformed: convert row by row to name the first.
        for line_number, row in enumerate(chunk, first_line):
            if row:
                _check_row(row, line_number)
        raise TraceParseError(str(exc), first_line) from None
    changes = map(or_, map(ne, run_ids[1:], run_ids), map(ne, interfaces[1:], interfaces))
    bounds = [0, *compress(range(1, len(rows)), changes), len(rows)]
    return [((run_ids[a], interfaces[a]), [c[a:b] for c in columns])
            for a, b in zip(bounds, bounds[1:])]


def read_traces(source) -> list[DelayTrace]:
    """Parse traces from a text stream or string, grouped by (run, interface)."""
    if isinstance(source, (bytes, bytearray)):
        source = source.decode("utf-8")
    if isinstance(source, str):
        # Line ends are left to csv, as in a file opened with newline="".
        source = io.StringIO(source, newline="")
    # Rows take record numbers (header = 1) as read: after a row csv cannot
    # split, next(numbers) is its record, not `line_num`'s physical line.
    numbers = count(1)
    reader = map(itemgetter(0), zip(csv.reader(source), numbers))
    try:
        header = next(reader, None)
        if header is None:
            raise TraceParseError("empty input, expected header row")
        if header != HEADER:
            raise TraceParseError(f"expected header {','.join(HEADER)}", line_number=1)

        segments: dict[tuple[str, str], list] = {}
        line_number = 2
        while chunk := list(islice(reader, SLICE_ROWS)):
            for key, columns in _segments(chunk, line_number):
                segments.setdefault(key, []).append(columns)
            line_number += len(chunk)
    except csv.Error as exc:
        raise TraceParseError(str(exc), next(numbers)) from None
    return [DelayTrace(run_id, interface, *map(np.concatenate, zip(*parts)))
            for (run_id, interface), parts in sorted(segments.items())]


def format_rows(keys, row_format: str, columns) -> str:
    """CSV rows, one per row of `columns`: the cells `keys`, csv-quoted
    once, then `row_format % values` (cells that need no quoting)."""
    buf = io.StringIO()
    # Quotes a cell holding either newline character; the rows end in "\n".
    csv.writer(buf, lineterminator="\r\n").writerow(keys)
    template = buf.getvalue()[:-2].replace("%", "%%") + "," + row_format + "\n"
    return (template * len(columns[0])) % tuple(chain.from_iterable(zip(*columns)))


def write_traces(traces) -> str:
    """Render traces as canonical CSV text, ordered by (run, interface, epoch)."""
    blocks = [",".join(HEADER) + "\n"]
    for trace in sorted(traces, key=lambda t: (t.run_id, t.interface_label)):
        mos, mos_format = trace.mos.tolist(), "%.9g"
        if np.isnan(trace.mos).any():  # write empty mos cells as ""
            mos, mos_format = ["" if m != m else "%.9g" % m for m in mos], "%s"
        blocks.append(format_rows([trace.run_id, trace.interface_label],
                                  "%d,%.9g," + mos_format,
                                  (trace.epochs.tolist(), trace.rtts(), mos)))
    return "".join(blocks)


def traces_from_run(run, labels, run_id: str) -> list[DelayTrace]:
    """Package a simulated run's per-interface delays and MOS as traces."""
    epochs = np.arange(run.duration)
    return [DelayTrace(run_id, label, epochs, run.delays_s[i], run.mos[i])
            for i, label in enumerate(labels)]
