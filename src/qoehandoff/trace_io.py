"""CSV persistence for delay/MOS traces.

Schema: header ``run_id,interface,epoch,rtt_s,mos`` with one sample per
row; the mos cell may be empty. Values are written with 9 significant
digits and reading back a written file restores them at that precision.

A trace is held as columns, and files are read and written in
whole-column passes. Reading takes a slice of `SLICE_ROWS` lines at a
time. A slice with no `"`, no carriage return but in a "\r\n" line end,
no ASCII information separator, no empty or blank cell after a comma and
no line over csv's field limit is one row per line, and NumPy's text
reader converts it in one call. Any other slice, or one that NumPy
refuses, is split by csv and its cells converted with Python's own `int`
and `float`. NumPy accepts a subset of what those accept and converts it
to the same values, so the syntax, values and error messages are csv's
and Python's.

Writing renders `RENDER_ROWS` rows at a time as NumPy byte strings: each
key's cells are csv-quoted once, and `csv_cells` renders each number
column as `"%d"` or `"%.9g"` does, from a table of 3-digit pieces; the
few values it cannot render exactly go to Python one at a time.
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
    """The csv rows of as many records as a slice has lines, the first on
    line `first_line`; a quoted cell open at the slice's end, or a record
    past it, takes its lines from `rest`."""
    rows = []
    try:
        rows.extend(islice(csv.reader(chain(lines, rest)), len(lines)))
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
    # A comma before a line end, a space or a control character starts an
    # empty or blank cell, which NumPy refuses only on reaching it, after
    # parsing the rows before: such a slice goes to csv at once.
    data = np.frombuffer(text.encode(), np.uint8)
    if ((data[:-1] == 44) & (data[1:] <= 32)).any() or text.endswith(","):
        return None
    try:
        with warnings.catch_warnings():
            # A warning marks input csv reads otherwise: no rows at all.
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


# Three-byte cell pieces: a 3-digit group g zero-padded ("050") at g or
# without trailing zeros ("05"; "" for 0) at _DROPPED + g, "%d" of g at
# _PLAIN + g, and a float's comma and leading digit d at _LEAD + d, with
# "." at _LEAD + 10 + d. The S dtype drops trailing NULs, so pieces join.
_DROPPED, _PLAIN, _LEAD = 1000, 2000, 3000
_PIECES = np.array([b"%03d" % g for g in range(1000)]
                   + [(b"%03d" % g).rstrip(b"0") for g in range(1000)]
                   + [b"%d" % g for g in range(1000)] + [b",%d" % d for d in range(10)]
                   + [b",%d." % d for d in range(10)], "S3")
_POWERS = np.array([float(10 ** k) for k in range(14)])  # exact doubles
RENDER_ROWS = 2048  # rows rendered per pass: bounds the cells held at once


def _float_cells(x):
    """`",%.9g" % v` of each value of float64 column `x`; "," for NaN."""
    with np.errstate(all="ignore"):
        e = np.floor(np.log10(x))  # or one off; 10^(8-e) is exact for e in [-5, 1]
        power = _POWERS.take((8.0 - e).astype(np.intp), mode="clip")
        q = x * power
        m = np.rint(q)
        # q < 2^30 lies within 2^-24 of x 10^(8-e), so m is the correctly
        # rounded 9-digit mantissa unless q is near a half-integer. Python
        # renders those, and any q outside [1e8, 1e9] (NaN, inf, zero,
        # negatives, a wrong e) or exponent after rounding outside [-4, 0].
        fast = (np.abs(q - m) < 0.5 - 2.0 ** -22) & (q >= 1e8) & (q <= 1e9)
        e += m == 1e9  # a carry
        fast &= (e >= -4) & (e <= 0)
        # The 12 fraction digits, m 10^(4+e): an exact integer below 10^13
        # (on a carry from e = -5, 10^9 times 0.1 rounds to 10^8).
        n = np.where(fast, m * np.divide(1e12, power, out=power), 0.0)
    # Exact float floor-divisions split n into a digit and 3-digit groups;
    # a group drops its trailing zeros when every group after it is zero.
    pieces = np.empty((5, len(x)), np.intp)
    for i, unit in enumerate((1e12, 1e9, 1e6, 1e3)):
        np.floor(n / unit, out=pieces[i], casting="unsafe")
        n -= pieces[i] * unit
    np.add(n, _DROPPED, out=pieces[4], casting="unsafe")
    for i in (3, 2, 1):
        np.add(pieces[i], _DROPPED, out=pieces[i], where=pieces[i + 1] == _DROPPED)
    pieces[0] += _LEAD + 10  # the piece with "." unless no digit follows
    np.subtract(pieces[0], 10, out=pieces[0], where=pieces[1] == _DROPPED)
    cells = _PIECES.take(pieces.T).view("S15").ravel()
    return _python_cells(cells, x, ~fast, lambda v: b"," if v != v else b",%.9g" % v)


def _int_cells(values):
    """`"%d" % v` of each value of an int64 column."""
    slow = (values < 0) | (values >= 1000)
    return _python_cells(_PIECES.take(np.where(slow, 0, values) + _PLAIN), values, slow,
                         b"%d".__mod__)


def _python_cells(cells, values, slow, render):
    """`cells`, with those of the values where `slow` is set rendered by
    Python's `render` one at a time."""
    texts = list(map(render, values[slow].tolist()))
    if texts:
        cells = cells.astype(f"S{max(cells.itemsize, *map(len, texts))}")
        cells[slow] = texts
    return cells


def csv_cells(column) -> np.ndarray:
    """The CSV cell of each value of an int or float column, after its
    comma, as an S array: `",%d"` or `",%.9g"`, or "," alone for NaN. An
    S column holds such cells already and is returned as it is."""
    column = np.asarray(column)
    if column.dtype.kind == "S":
        return column
    if column.dtype.kind == "f":
        return _float_cells(column.astype(float, copy=False))
    return np.add(b",", _int_cells(column.astype(np.int64, copy=False)))


def _key_prefixes(keys) -> np.ndarray:
    """The cells of each tuple in `keys`, csv-quoted (also a cell holding
    "\r" or "\n") and UTF-8 encoded, then ","; the comma keeps the S dtype
    from dropping a NUL that ends a key."""
    buf = io.StringIO()
    writer, ends = csv.writer(buf, lineterminator="\r\n"), [0]
    for key in keys:
        writer.writerow(key)
        ends.append(buf.tell())
    text = buf.getvalue()
    return np.array([(text[a:b - 2] + ",").encode() for a, b in zip(ends, ends[1:])], "S")


def trace_rows(keys, counts, first, *rest):
    """CSV rows as bytes, `RENDER_ROWS` at a time: `counts[k]` rows of each
    key tuple `keys[k]` in turn, row i holding the key's cells, "%d" of int
    `first[i]` and the `csv_cells` of each column of `rest` at i."""
    prefixes = np.repeat(_key_prefixes(keys), counts)
    for a in range(0, len(prefixes), RENDER_ROWS):
        part = slice(a, a + RENDER_ROWS)
        rows = np.add(prefixes[part], _int_cells(np.asarray(first[part], np.int64)))
        for column in rest:
            rows = np.add(rows, csv_cells(column[part]))
        rows = rows.tolist()  # a list: the array is dropped before the join
        rows.append(b"")
        yield b"\n".join(rows)


def write_traces(traces) -> str:
    """Render traces as canonical CSV text, ordered by (run, interface, epoch)."""
    traces = sorted(traces, key=lambda t: (t.run_id, t.interface_label))
    rows = trace_rows([(t.run_id, t.interface_label) for t in traces],
                      [t.epochs.size for t in traces],
                      *(np.concatenate([getattr(t, name) for t in traces] or [[]])
                        for name in ("epochs", "rtt_s", "mos")))
    return ",".join(HEADER) + "\n" + b"".join(rows).decode()


def block_rows(run_ids, labels, delays_s, mos) -> bytes:
    """The rows `write_traces` renders for a block of simulated runs, as
    UTF-8, with delays and MOS on axes (run, interface, epoch) as a
    `RunBlock` holds them; row b is run `run_ids[b]`. The runs are rendered
    in the order given, which must be the canonical one, and each run's
    interfaces in label order."""
    order = sorted(range(len(labels)), key=labels.__getitem__)
    epochs = delays_s.shape[2]
    return b"".join(trace_rows([(run_id, labels[i]) for run_id in run_ids for i in order],
                               epochs, np.tile(np.arange(epochs), len(run_ids) * len(order)),
                               delays_s[:, order].ravel(), mos[:, order].ravel()))


def traces_from_run(delays_s, mos, labels, run_id: str) -> list[DelayTrace]:
    """Package one simulated run's delays and MOS, each on axes (interface,
    epoch) as a row of a `RunBlock` holds them, as one trace per interface."""
    epochs = np.arange(delays_s.shape[1])
    return [DelayTrace(run_id, label, epochs, d, m)
            for label, d, m in zip(labels, delays_s, mos)]
