"""CSV persistence for delay/MOS traces.

Schema: header ``run_id,interface,epoch,rtt_s,mos`` with one sample per
row; the mos cell may be empty. Values are written with 9 significant
digits and reading back a written file restores them at that precision.

A trace is held as columns, and files are read and written in
whole-column passes, a slice of `SLICE_ROWS` lines at a time; each
trace's rows are written as one block. A slice with no `"`, no carriage
return but in a "\r\n" line end, no ASCII information separator and no
line over csv's field limit is one row per line, and NumPy's text reader
converts it in one call. Any other slice, or one that NumPy refuses (an
empty mos cell, say), is split by csv and its cells converted with
Python's own `int` and `float`. NumPy accepts a subset of what those
accept and converts it to the same values, so the syntax, values and
error messages are csv's and Python's.
"""

from __future__ import annotations

import csv
import io
import warnings
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, compress, islice

import numpy as np

from .errors import TraceParseError, TraceValidationError

HEADER = ["run_id", "interface", "epoch", "rtt_s", "mos"]
# Lines converted per column pass: bounds the row strings held at once.
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


def _split(run_ids, interfaces, columns):
    """((run_id, interface), [epochs, rtts, mos]) for each run of rows with
    one key, the keys as object arrays and the columns as arrays."""
    changes = (run_ids[1:] != run_ids[:-1]) | (interfaces[1:] != interfaces[:-1])
    bounds = [0, *(changes.nonzero()[0] + 1).tolist(), len(run_ids)]
    return [((run_ids[a], interfaces[a]), [c[a:b] for c in columns])
            for a, b in zip(bounds, bounds[1:])]


def _segments(chunk, first_line):
    """`_split` of a slice of csv rows, the first on line `first_line`;
    blank rows are skipped."""
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
    return _split(np.array(run_ids, object), np.array(interfaces, object), columns)


def _csv_rows(lines, rest, first_line):
    """The csv rows of a slice of lines, the first on line `first_line`; a
    quoted cell open at the slice's end takes its next lines from `rest`."""
    reader = csv.reader(chain(lines, rest))
    rows = []
    try:
        while reader.line_num < len(lines):
            rows.append(next(reader))
    except csv.Error as exc:
        _segments(rows, first_line)  # a malformed row before it is named first
        raise TraceParseError(str(exc), first_line + len(rows)) from None
    return rows


_ROW_DTYPE = np.dtype([("run_id", object), ("interface", object), ("epoch", np.int64),
                       ("rtt_s", float), ("mos", float)])


def _loadtxt_segments(lines):
    """`_split` of a slice of lines converted by NumPy's text reader, or
    None where that reader might not read it as csv, `int` and `float` do."""
    text = "".join(lines)
    limit = csv.field_size_limit()
    # No quoting, and "\r" only in "\r\n" line ends, so each line is one
    # row (NumPy 2.4 also refuses a newline character inside a line; older
    # releases are not known to). No line can hold a cell over csv's limit,
    # and no cell an information separator, which NumPy strips around a
    # number as whitespace but Python's `int` and `float` do not.
    if (any(map(text.__contains__, '"\x1c\x1d\x1e\x1f'))
            or ("\r" in text and text.count("\r") != text.count("\r\n"))
            or (len(text) > limit and max(map(len, lines)) > limit)):
        return None
    try:
        with warnings.catch_warnings():
            # A warning marks input csv reads otherwise: no rows at all, or
            # (NumPy < 2.0) an integer read through a float.
            warnings.simplefilter("error")
            table = np.loadtxt(lines, _ROW_DTYPE, delimiter=",", quotechar='"',
                               comments=None, ndmin=1)
    except (ValueError, Warning):
        return None
    # Copies: views would keep each slice's table, and its keys, alive.
    mos = table["mos"].copy()
    mos[np.isnan(mos)] = np.inf  # a literal nan: every mos cell here is set
    return _split(table["run_id"], table["interface"],
                  [table["epoch"].copy(), table["rtt_s"].copy(), mos])


def read_traces(source) -> list[DelayTrace]:
    """Parse traces, grouped by (run, interface), from a text stream (a file
    opened with ``newline="", encoding="utf-8"``) or a string.

    A stream is parsed as it is read, `SLICE_ROWS` lines at a time, so the
    file's text is never held whole. A file that is not UTF-8 raises
    TraceParseError without a line number: the stream is decoded ahead of
    the parser, so the record holding the bad byte is not known.
    """
    if isinstance(source, str):
        # Line ends are left to csv, as in a file opened with newline="".
        source = io.StringIO(source, newline="")
    lines = iter(source)
    try:
        try:
            header = next(csv.reader(lines), None)
        except csv.Error as exc:
            raise TraceParseError(str(exc), 1) from None
        if header is None:
            raise TraceParseError("empty input, expected header row")
        if header != HEADER:
            raise TraceParseError(f"expected header {','.join(HEADER)}", line_number=1)

        segments: dict[tuple[str, str], list] = {}
        line_number = 2  # records, not physical lines: the header is 1
        while chunk := list(islice(lines, SLICE_ROWS)):
            converted, records = _loadtxt_segments(chunk), len(chunk)
            if converted is None:
                rows = _csv_rows(chunk, lines, line_number)
                converted, records = _segments(rows, line_number), len(rows)
            for key, columns in converted:
                segments.setdefault(key, []).append(columns)
            line_number += records
    except UnicodeDecodeError as exc:
        raise TraceParseError(f"not UTF-8 text: byte 0x{exc.object[exc.start]:02x}: "
                              f"{exc.reason}") from None
    # Each trace's slices are dropped as soon as it is joined, so the
    # slices and the joined columns are never all held together.
    traces = []
    for key in sorted(segments):
        traces.append(DelayTrace(*key, *map(np.concatenate, zip(*segments.pop(key)))))
    return traces


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


def block_rows(run_ids, labels, delays_s, mos) -> str:
    """The rows `write_traces` renders for a block of simulated runs, with
    delays and MOS on axes (run, interface, epoch) as a `RunBlock` holds
    them; row b is run `run_ids[b]`. The runs are rendered in the order
    given, which must be the canonical one, and each run's interfaces in
    label order. Every MOS is set: there are no empty cells."""
    epochs = range(delays_s.shape[2])
    order = sorted(range(len(labels)), key=labels.__getitem__)
    # Values become Python floats a run at a time: the whole block's at
    # once raised the peak RSS of `simulate` by about 0.3 MB.
    tolist = np.ndarray.tolist
    return "".join(format_rows([run_id, labels[i]], "%d,%.9g,%.9g",
                               (epochs, run_delays[i], run_mos[i]))
                   for run_id, run_delays, run_mos in zip(run_ids, map(tolist, delays_s),
                                                          map(tolist, mos))
                   for i in order)


def traces_from_run(delays_s, mos, labels, run_id: str) -> list[DelayTrace]:
    """Package one simulated run's delays and MOS, each on axes (interface,
    epoch) as a row of a `RunBlock` holds them, as one trace per interface."""
    epochs = np.arange(delays_s.shape[1])
    return [DelayTrace(run_id, label, epochs, d, m)
            for label, d, m in zip(labels, delays_s, mos)]
