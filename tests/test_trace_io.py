"""CSV trace schema: parsing, validation, canonical writing."""

import csv
import io
import math
import os
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from qoehandoff import trace_io
from qoehandoff.cli import main
from qoehandoff.errors import TraceParseError, TraceValidationError
from qoehandoff.netsim import generate_run, roaming_scenario
from qoehandoff.trace_io import (HEADER, DelayTrace, read_traces,
                                 traces_from_run, write_traces)
from references import reference_write_traces

SAMPLE = """run_id,interface,epoch,rtt_s,mos
run000,WLAN,0,0.1,4.2
run000,WLAN,1,0.2,3.9
run000,CDMA2000,0,0.3,
run001,WLAN,0,0.15,4.0
"""


class TestRead:
    def test_groups_by_run_and_interface(self):
        traces = read_traces(SAMPLE)
        keys = [(t.run_id, t.interface_label) for t in traces]
        assert keys == [("run000", "CDMA2000"), ("run000", "WLAN"),
                        ("run001", "WLAN")]

    def test_values_parsed(self):
        traces = read_traces(SAMPLE)
        wlan = next(t for t in traces
                    if t.run_id == "run000" and t.interface_label == "WLAN")
        assert wlan.rtts() == [0.1, 0.2]
        assert wlan.mos_values() == [4.2, 3.9]

    def test_empty_mos_cell_is_none(self):
        traces = read_traces(SAMPLE)
        cdma = next(t for t in traces if t.interface_label == "CDMA2000")
        assert cdma.mos_values() == [None]

    def test_accepts_string_and_stream(self):
        assert len(read_traces(SAMPLE)) == 3
        assert len(read_traces(io.StringIO(SAMPLE))) == 3

    @pytest.mark.parametrize("at_row", [0, 3, 2_000])
    def test_non_utf8_input_names_the_byte_but_no_record(self, tmp_path, at_row):
        # A file is decoded 8 KB ahead of csv, so a record number could name
        # the wrong record. With the bad byte in the first row, a few rows in
        # or far past the first decoded chunk, the error names the byte and
        # no record.
        rows = [f"r,WLAN,{t},0.1,4.0\n".encode() for t in range(3_000)]
        rows[at_row] = rows[at_row].replace(b"WLAN", b"WL\xffAN")
        path = tmp_path / "bad.csv"
        path.write_bytes(",".join(HEADER).encode() + b"\n" + b"".join(rows))
        with open(path, newline="", encoding="utf-8") as fh, \
                pytest.raises(TraceParseError) as err:
            read_traces(fh)
        assert err.value.line_number is None
        assert str(err.value) == "not UTF-8 text: byte 0xff: invalid start byte"

    def test_empty_input_raises(self):
        with pytest.raises(TraceParseError):
            read_traces("")

    def test_wrong_header_raises_with_line(self):
        with pytest.raises(TraceParseError) as exc:
            read_traces("a,b,c\n1,2,3\n")
        assert exc.value.line_number == 1

    def test_bad_field_count_reports_line(self):
        bad = SAMPLE + "run001,WLAN,1\n"
        with pytest.raises(TraceParseError) as exc:
            read_traces(bad)
        assert exc.value.line_number == 6

    def test_non_numeric_value_reports_line(self):
        bad = "run_id,interface,epoch,rtt_s,mos\nr,WLAN,zero,0.1,4.0\n"
        with pytest.raises(TraceParseError) as exc:
            read_traces(bad)
        assert exc.value.line_number == 2


class TestValidation:
    def test_epochs_must_increase(self):
        with pytest.raises(TraceValidationError):
            DelayTrace("r", "WLAN", [1, 1], [0.1, 0.2], [np.nan, np.nan])

    def test_rtt_must_be_positive(self):
        with pytest.raises(TraceValidationError):
            DelayTrace("r", "WLAN", [0], [0.0], [np.nan])

    @pytest.mark.parametrize("rtt", ["nan", "inf", "1e400", "-inf"])
    def test_rtt_must_be_finite(self, rtt):
        text = f"run_id,interface,epoch,rtt_s,mos\nr,WLAN,0,0.1,\nr,WLAN,3,{rtt},\n"
        with pytest.raises(TraceValidationError, match="run r/WLAN epoch 3: rtt_s"):
            read_traces(text)

    def test_mos_range_enforced(self):
        with pytest.raises(TraceValidationError):
            DelayTrace("r", "WLAN", [0], [0.1], [5.5])
        with pytest.raises(TraceValidationError):
            read_traces("run_id,interface,epoch,rtt_s,mos\nr,WLAN,0,0.1,0.5\n")


class TestWrite:
    def test_round_trip_text(self):
        traces = read_traces(SAMPLE)
        assert columnar_read(write_traces(traces)) == \
            [(t.run_id, t.interface_label, t.samples) for t in traces]

    def test_header_first_line(self):
        text = write_traces(read_traces(SAMPLE))
        assert text.splitlines()[0] == ",".join(HEADER)

    def test_canonical_ordering(self):
        # Writing is sorted, so write(read(write(x))) == write(x).
        text = write_traces(read_traces(SAMPLE))
        assert write_traces(read_traces(text)) == text

    @pytest.mark.parametrize("batch", [1, 2, 3])
    def test_batches_in_order_write_the_whole_text(self, batch):
        # Traces split into consecutive spans of the canonical order and
        # written one span at a time, header first, give one call's text.
        traces = sorted(read_traces(SAMPLE),
                        key=lambda t: (t.run_id, t.interface_label))
        text = write_traces([]) + "".join(
            write_traces(traces[i:i + batch]).partition("\n")[2]
            for i in range(0, len(traces), batch))
        assert write_traces([]) == ",".join(HEADER) + "\n"
        assert text == write_traces(traces[::-1])

    def test_precision_survives_round_trip(self):
        trace = DelayTrace("r", "WLAN", [0], [0.123456789], [3.987654321])
        restored = read_traces(write_traces([trace]))[0]
        assert restored.samples[0][1] == pytest.approx(0.123456789, rel=1e-9)
        assert restored.samples[0][2] == pytest.approx(3.987654321, rel=1e-9)


class TestSimulatorBridge:
    def test_traces_from_run_conserves_samples(self):
        cfg = roaming_scenario(seed=0, runs=1, duration_epochs=30)
        run = generate_run(cfg, 0)
        traces = traces_from_run(run.delays_s, run.mos, ["WLAN", "CDMA2000"], "run000")
        assert len(traces) == 2
        for i, trace in enumerate(traces):
            assert np.allclose(trace.rtts(), run.delays_s[i])
            assert np.allclose(trace.mos_values(), run.mos[i])

    def test_batch_round_trip_scale(self):
        # A dozen runs of two interfaces round-trip without loss of
        # structure (the CLI's normal operating size).
        cfg = roaming_scenario(seed=0, runs=12, duration_epochs=101)
        traces = []
        for r in range(cfg.runs):
            run = generate_run(cfg, r)
            traces.extend(traces_from_run(run.delays_s, run.mos, ["WLAN", "CDMA2000"],
                                          f"run{r:03d}"))
        text = write_traces(traces)
        restored = read_traces(text)
        assert len(restored) == 24
        assert sum(len(t.samples) for t in restored) == 24 * 101


def _read_one(body):
    """The only trace of a header plus `body`."""
    (trace,) = read_traces(",".join(HEADER) + "\n" + body)
    return trace


class TestCsvBehaviour:
    """What a trace CSV means, pinned through `read_traces`/`write_traces`."""

    # Canonical text: (run, interface) order, labels that need csv quotes
    # and a `%` that a printf-style template must not read.
    QUOTED = (",".join(HEADER) + "\n"
              + 'r%d,100% WLAN,0,0.3,3\n'
              + '"r,1",Wi-Fi café,1,0.25,1\n'
              + '"r,1","say ""hi""",0,0.1,4.2\n'
              + '"r,1","say ""hi""",2,0.2,\n')

    def test_quoted_labels_round_trip_byte_identically(self):
        traces = read_traces(self.QUOTED)
        assert [(t.run_id, t.interface_label) for t in traces] == [
            ("r%d", "100% WLAN"), ("r,1", "Wi-Fi café"), ("r,1", 'say "hi"')]
        assert write_traces(traces) == self.QUOTED

    def test_label_with_carriage_return_round_trips(self):
        trace = DelayTrace("r", "a\rb", [0], [0.1], [4.0])
        text = write_traces([trace])
        assert text == ",".join(HEADER) + '\nr,"a\rb",0,0.1,4\n'
        assert read_traces(text)[0].interface_label == "a\rb"
        # Unquoted, a carriage return ends a line, as "\r\n" and "\n" do.
        for ending in ("\r", "\r\n"):
            (again,) = read_traces(text.replace("\n", ending))
            assert (again.interface_label, again.samples) == ("a\rb", ((0, 0.1, 4.0),))

    def test_unsplittable_row_names_its_record(self):
        head = ",".join(HEADER) + "\n"
        for source, line, message in [
                # Records, not physical lines: the quoted cell of record 2
                # spans two lines.
                (head + '"x\ny",W,0,0.1,\nr,' + "W" * 200_000 + ",1,0.1,\n", 3,
                 "field larger than field limit (131072)"),
                # A stream that keeps its line ends from csv.
                (io.StringIO(head + "r,W\rLAN,0,0.1,\n"), 2,
                 "new-line character seen in unquoted field")]:
            with pytest.raises(TraceParseError) as exc:
                read_traces(source)
            assert str(exc.value).startswith(f"line {line}: {message}")
            assert exc.value.line_number == line

    def test_blank_rows_are_skipped_but_counted_as_lines(self):
        body = "r,WLAN,0,0.1,4.2\n\n\nr,WLAN,1,0.2,\n"
        assert _read_one(body).samples == ((0, 0.1, 4.2), (1, 0.2, None))
        with pytest.raises(TraceParseError, match=r"^line 7: ") as exc:
            _read_one(body + "\nr,WLAN,x,0.3,\n")
        assert exc.value.line_number == 7

    @pytest.mark.parametrize("row, message", [
        ("r,WLAN,1", "expected 5 fields, got 3"),
        ("r,WLAN,1,0.1,4,5", "expected 5 fields, got 6"),
        ("r,WLAN,one,0.1,", "invalid literal for int() with base 10: 'one'"),
        ("r,WLAN,1.0,0.1,", "invalid literal for int() with base 10: '1.0'"),
        ("r,WLAN,1,fast,", "could not convert string to float: 'fast'"),
        ("r,WLAN,1,,4", "could not convert string to float: ''"),
        ("r,WLAN,1,0.1,good", "could not convert string to float: 'good'"),
        # Several bad cells: epoch, then rtt, then mos.
        ("r,WLAN,one,fast,good", "invalid literal for int() with base 10: 'one'"),
        ("r,WLAN,1,fast,good", "could not convert string to float: 'fast'"),
    ])
    def test_malformed_row_reports_its_line(self, row, message):
        with pytest.raises(TraceParseError) as exc:
            _read_one(f"r,WLAN,0,0.1,4.2\n{row}\nr,WLAN,2,0.1,4.2\n")
        assert exc.value.line_number == 3
        assert str(exc.value) == f"line 3: {message}"

    def test_first_malformed_row_wins(self):
        # Per row: field count, then epoch, rtt and mos; parse errors come
        # before any validation error, wherever they are in the file.
        with pytest.raises(TraceParseError, match=r"^line 3: could not convert "
                                                  r"string to float: 'x'$"):
            _read_one("r,WLAN,0,-1,4.2\nr,WLAN,1,0.1,x\nr,WLAN,y,0.1,4.2\nr,W\n")

    def test_line_numbers_hold_deep_into_a_long_file(self):
        body = "".join(f"r{i % 7},WLAN,{i},0.1,4.2\n" for i in range(20000))
        body += "\n" * 3 + "r9,WLAN,0,0.1\n"
        with pytest.raises(TraceParseError) as exc:
            _read_one(body)
        assert exc.value.line_number == 1 + 20000 + 3 + 1

    @pytest.mark.parametrize("cell", ["nan", " NaN ", "-nan"])
    def test_literal_nan_mos_is_rejected(self, cell):
        with pytest.raises(TraceValidationError,
                           match=r"^run r/WLAN epoch 4: mos outside \[1, 5\]$"):
            _read_one(f"r,WLAN,0,0.1,\nr,WLAN,4,0.1,{cell}\n")

    @pytest.mark.parametrize("cell", ["", " ", "\t"])
    def test_blank_mos_cell_reads_as_none(self, cell):
        assert _read_one(f"r,WLAN,0,0.1,{cell}\n").mos_values() == [None]

    def test_mos_may_be_set_on_some_samples_only(self):
        trace = _read_one("r,WLAN,0,0.1,4.2\nr,WLAN,1,0.2,\nr,WLAN,5,0.3,3\n")
        assert trace.mos_values() == [4.2, None, 3.0]
        assert trace.rtts() == [0.1, 0.2, 0.3]
        assert write_traces([trace]).splitlines()[1:] == [
            "r,WLAN,0,0.1,4.2", "r,WLAN,1,0.2,", "r,WLAN,5,0.3,3"]

    def test_interleaved_rows_group_in_file_order(self):
        traces = read_traces(",".join(HEADER) + "\n"
                             "r1,WLAN,0,0.1,\nr0,WLAN,0,0.2,\nr1,WLAN,3,0.3,\n"
                             "r1,CDMA2000,0,0.4,\nr0,WLAN,1,0.5,\nr1,WLAN,4,0.6,\n")
        assert [(t.run_id, t.interface_label, t.samples) for t in traces] == [
            ("r0", "WLAN", ((0, 0.2, None), (1, 0.5, None))),
            ("r1", "CDMA2000", ((0, 0.4, None),)),
            ("r1", "WLAN", ((0, 0.1, None), (3, 0.3, None), (4, 0.6, None)))]

    def test_interleaved_rows_keep_their_order_when_validated(self):
        with pytest.raises(TraceValidationError, match="^run r1/WLAN: epochs must"):
            read_traces(",".join(HEADER) + "\n"
                        "r1,WLAN,5,0.1,\nr0,WLAN,0,0.2,\nr1,WLAN,3,0.3,\n")

    def test_padded_cells_parse_as_python_numbers(self):
        trace = _read_one(" 3 , WLAN , 3 , 0.5 , 4.0 \n 3 , WLAN ,+1_0,1e-1,\t5\n")
        assert (trace.run_id, trace.interface_label) == (" 3 ", " WLAN ")
        assert trace.samples == ((3, 0.5, 4.0), (10, 0.1, 5.0))



class TestColumns:
    def test_columns_are_read_only_and_nan_marks_an_empty_mos_cell(self):
        trace = _read_one("r,WLAN,2,0.1,4.2\nr,WLAN,7,0.2,\n")
        assert trace.epochs.dtype == np.int64 and trace.epochs.tolist() == [2, 7]
        assert trace.rtt_s.tolist() == [0.1, 0.2]
        assert trace.mos[0] == 4.2 and np.isnan(trace.mos[1])
        for column in (trace.epochs, trace.rtt_s, trace.mos):
            with pytest.raises(ValueError):
                column[0] = 1

    def test_epoch_beyond_int64_reports_its_line(self):
        with pytest.raises(TraceParseError, match=r"^line 3: epoch 9223372036854775808 "
                                                  r"out of range$"):
            _read_one("r,WLAN,0,0.1,\nr,WLAN,9223372036854775808,0.1,\n")
        assert _read_one("r,WLAN,-9223372036854775808,0.1,\n").epochs[0] == -2**63

    def test_traces_from_run_leave_the_run_writable(self):
        run = generate_run(roaming_scenario(seed=0, runs=1, duration_epochs=5), 0)
        (trace, _) = traces_from_run(run.delays_s, run.mos, ["WLAN", "CDMA2000"],
                                     "run000")
        assert trace.epochs.tolist() == list(range(5))
        assert run.delays_s[0].flags.writeable and run.mos[0].flags.writeable


# The row-by-row reader and writer that the column passes replaced, kept
# as the reference they must match. A trace is (run_id, interface,
# samples), a sample (epoch, rtt_s, mos or None).

def numbered_rows(reader):
    """(record number, row) of each row of `reader` after the header; a row
    csv cannot split raises TraceParseError naming its record."""
    line_number = 2
    try:
        for row in reader:
            yield line_number, row
            line_number += 1
    except csv.Error as exc:
        raise TraceParseError(str(exc), line_number) from None


def reference_read(text):
    reader = csv.reader(io.StringIO(text))
    assert next(reader) == HEADER
    groups = {}
    for line_number, row in numbered_rows(reader):
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
    traces = sorted(groups.items())
    for (run_id, interface), samples in traces:
        epochs = [s[0] for s in samples]
        if any(b <= a for a, b in zip(epochs, epochs[1:])):
            raise TraceValidationError(
                f"run {run_id}/{interface}: epochs must be strictly increasing")
        for epoch, rtt, mos in samples:
            if not 0 < rtt < math.inf:
                raise TraceValidationError(
                    f"run {run_id}/{interface} epoch {epoch}: rtt_s must be finite and > 0")
            if mos is not None and not 1.0 <= mos <= 5.0:
                raise TraceValidationError(
                    f"run {run_id}/{interface} epoch {epoch}: mos outside [1, 5]")
    return [(run_id, interface, tuple(samples)) for (run_id, interface), samples in traces]


def csv_line(row):
    """One CSV row ending in "\\n", a cell quoted when it holds a comma, a
    quote or either newline character (the csv module quotes the
    characters of its line terminator)."""
    out = io.StringIO()
    csv.writer(out, lineterminator="\r\n").writerow(row)
    return out.getvalue()[:-2] + "\n"


def delay_traces(traces):
    """(run_id, label, samples) tuples as DelayTraces, a None MOS as NaN."""
    return [DelayTrace(run_id, label, [s[0] for s in samples], [s[1] for s in samples],
                       [np.nan if s[2] is None else s[2] for s in samples])
            for run_id, label, samples in traces]


def outcome(read, text):
    """What reading `text` gives: its traces, or its error's class and text."""
    try:
        return read(text)
    except (TraceParseError, TraceValidationError) as exc:
        return type(exc), str(exc)


def columnar_read(text):
    return [(t.run_id, t.interface_label, t.samples) for t in read_traces(text)]


LABELS = st.text(st.characters(blacklist_categories=("Cs",))
                 | st.sampled_from(',"% \r\n'), max_size=5)
SAMPLES = st.lists(st.integers(-2**40, 2**40), unique=True, max_size=8).flatmap(
    lambda epochs: st.tuples(*(
        st.tuples(st.just(epoch),
                  st.floats(0.0, 1e308, exclude_min=True),
                  st.none() | st.floats(1.0, 5.0))
        for epoch in sorted(epochs))))
TRACES = st.lists(st.tuples(LABELS, LABELS, SAMPLES), max_size=5,
                  unique_by=lambda t: t[:2])
# Rows per column pass: one, a few, and the module's own.
SLICES = st.sampled_from([1, 2, 3, trace_io.SLICE_ROWS])


def _block(shape):
    """Run ids in canonical order, interface labels, and the block's delays
    and MOS as flat lists of runs x interfaces x epochs cells."""
    runs, interfaces, epochs = shape
    cells = runs * interfaces * epochs
    return st.tuples(
        st.lists(LABELS, min_size=runs, max_size=runs, unique=True).map(sorted),
        st.lists(LABELS, min_size=interfaces, max_size=interfaces),
        st.lists(st.floats(0.0, 1e308, exclude_min=True), min_size=cells, max_size=cells),
        st.lists(st.floats(1.0, 5.0), min_size=cells, max_size=cells))


BLOCKS = st.tuples(st.integers(1, 5), st.integers(1, 3), st.integers(1, 6)).flatmap(_block)


def _near_halfway(k, e):
    """The double nearest a 9-digit halfway point k.5 x 10^(e-8), or one of
    its two neighbours."""
    half = (k + 0.5) / 10.0 ** (8 - e)
    return st.sampled_from([half, math.nextafter(half, 0), math.nextafter(half, math.inf)])


def _near_power(k):
    return st.sampled_from([10.0 ** k, math.nextafter(10.0 ** k, 0),
                            math.nextafter(10.0 ** k, math.inf)])


FLOAT_CELLS = st.lists(
    st.floats() | st.floats(1e-7, 1e12) | st.floats(0.01, 10.0)
    | st.tuples(st.integers(10 ** 8, 10 ** 9 - 1), st.integers(-6, 2)).flatmap(
        lambda ke: _near_halfway(*ke))
    | st.integers(-8, 12).flatmap(_near_power), max_size=40)


class TestCsvCells:
    EDGES = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, 2.2250738585072014e-308,
             -1.5, 9.9999999995, 9.99999999949999, 9.9999999994999999e-5, 1e-4,
             0.1, 1.001953125, 123456789.5, 1e9, 1e12, 0.5 + 2 ** -30]

    @settings(max_examples=300, deadline=None)
    @given(FLOAT_CELLS)
    @example(EDGES)
    def test_floats_match_python_formatting(self, values):
        expected = [b"," if v != v else b",%.9g" % v for v in values]
        assert trace_io.csv_cells(np.array(values, float)).tolist() == expected

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(-2 ** 63, 2 ** 63 - 1) | st.integers(-5, 2000), max_size=40))
    def test_ints_match_python_formatting(self, values):
        assert trace_io.csv_cells(np.array(values, np.int64)).tolist() == \
            [b",%d" % v for v in values]

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(st.tuples(LABELS, LABELS | st.integers(-5, 5)),
                              st.integers(0, 3)), max_size=6))
    @example([(("r,1", 'W"LAN'), 2), (("a\rb%", "é\n"), 1), (("%d", "x\x00"), 3)])
    def test_rows_quote_keys_as_csv_writer(self, traces):
        counts = [count for _, count in traces]
        keys = [key for key, count in traces for _ in range(count)]
        epochs = np.arange(len(keys)) * 300 - 3  # negative and above 999 too
        values = np.linspace(1e-3, 4.5, len(keys))
        rows = [csv_line([*key, epoch, "%.9g" % value])
                for key, epoch, value in zip(keys, epochs.tolist(), values.tolist())]
        assert b"".join(trace_io.trace_rows([key for key, _ in traces], counts, epochs,
                                            values)) == "".join(rows).encode()


class TestBlockRows:
    @settings(max_examples=100, deadline=None)
    @given(BLOCKS)
    @example((["r%d", "r,1"], ["W,LAN", 'C"DMA', "a\rb%"],
              [0.1, 0.2, 0.3, 1e-3, 2.5, 0.7], [1.0, 5.0, 3.25] * 2))
    def test_rows_equal_the_trace_writer(self, block):
        # A block's rows are what a value-by-value writer renders for the
        # traces of its runs, after the header.
        run_ids, labels, delays, mos = block
        shape = (len(run_ids), len(labels), -1)
        delays, mos = np.reshape(delays, shape), np.reshape(mos, shape)
        traces = [trace for run_id, d, m in zip(run_ids, delays, mos)
                  for trace in traces_from_run(d, m, labels, run_id)]
        assert (",".join(HEADER) + "\n").encode() \
            + trace_io.block_rows(run_ids, labels, delays, mos) \
            == reference_write_traces(traces).encode()


class TestMatchesRowByRowReference:
    def test_keys_repeating_across_slices(self):
        # Three keys interleaved row by row and a fourth in one run of rows,
        # each spread over several SLICE_ROWS slices, every slice holding
        # several keys.
        rows = [(f"r{k}", "WLAN", epoch, 0.01 * (k + 1) + 1e-5 * epoch, None)
                for epoch in range(trace_io.SLICE_ROWS) for k in range(3)]
        rows[700:700] = [("r1", "CDMA2000", epoch, 0.5, 4.0)
                         for epoch in range(trace_io.SLICE_ROWS + 7)]
        text = "".join(map(csv_line, [HEADER] + [
            [run_id, label, epoch, format(rtt, ".9g"), "" if mos is None else mos]
            for run_id, label, epoch, rtt, mos in rows]))
        assert len(rows) > 4 * trace_io.SLICE_ROWS
        assert columnar_read(text) == reference_read(text)

    @settings(max_examples=100, deadline=None)
    @given(TRACES)
    def test_writer_emits_the_same_bytes(self, traces):
        columnar = delay_traces(traces)
        assert write_traces(columnar) == reference_write_traces(columnar)

    @settings(max_examples=100, deadline=None)
    @given(TRACES, SLICES)
    def test_reader_returns_the_same_values(self, traces, slice_rows):
        text = reference_write_traces(delay_traces(traces))
        with mock.patch.object(trace_io, "SLICE_ROWS", slice_rows):
            assert columnar_read(text) == reference_read(text)

    @settings(max_examples=200, deadline=None)
    @given(TRACES, SLICES, st.data())
    def test_reader_fails_the_same_way_on_an_edited_file(self, traces, slice_rows,
                                                          data):
        # One row edited or added: a cell replaced, dropped or added, or a
        # blank row or a copy of the row put before it.
        rows = list(csv.reader(io.StringIO(reference_write_traces(delay_traces(traces)))))
        i = data.draw(st.integers(1, len(rows)))
        row = rows[i] if i < len(rows) else ["r", "W", "0", "1", ""]
        edit = data.draw(st.sampled_from(["cell", "drop", "add", "blank", "copy"]))
        j = data.draw(st.integers(0, len(row) - 1))
        if edit == "cell":
            row[j] = data.draw(st.text(" 0123456789.+-_einaf", max_size=6))
        elif edit == "drop":
            del row[j]
        elif edit == "add":
            row.insert(j, "1")
        rows[i:i + 1] = {"blank": [[], row], "copy": [row, row]}.get(edit, [row])
        text = "".join(map(csv_line, rows))
        with mock.patch.object(trace_io, "SLICE_ROWS", slice_rows):
            assert outcome(columnar_read, text) == outcome(reference_read, text)


# Slices of plain lines are converted by NumPy's text reader, all others
# by csv, `int` and `float`; the cases below sit where the two could part.

def streamed_read(text):
    """`columnar_read` of `text` from a stream that splits lines at "\\n"
    only, as `reference_read`'s does."""
    return [(t.run_id, t.interface_label, t.samples) for t in read_traces(io.StringIO(text))]


def _between_plain_rows(body):
    """A header, three plain rows of another trace, `body`, three more."""
    return (",".join(HEADER) + "\n" + "".join(f"q,WLAN,{t},0.1,4.2\n" for t in range(3))
            + body + "".join(f"q,WLAN,{t},0.1,4.2\n" for t in range(3, 6)))


EDGE_BODIES = {
    "underscore epoch": "r,W,1_0,0.1,4.2\n",
    "underscore rtt": "r,W,1,0.1_5,4.2\n",
    "arabic-indic digits": "r,W,١٢,٠.٥,٤\n",
    "non-ascii spaces": "r,W,\u20031\u2003,\xa00.1,4.2\x85\n",
    "ascii padding": "r,W, 1 ,\t0.1\t,\x0b4.2\x0c\n",
    "information separator": "r,W,1\x1c,0.1,4.2\n",
    "separator in a label": "r\x1f,W\x1c,1,0.1,4.2\n",
    "blank mos": "r,W,1,0.1,\n",
    "whitespace mos": "r,W,1,0.1, \t\n",
    "nan mos": "r,W,1,0.1,nan\n",
    "padded nan mos": "r,W,1,0.1, NaN \n",
    "stray carriage return": "r,W\rLAN,1,0.1,4.2\n",
    "carriage returns ending a line": "r,W,1,0.1,4.2\r\r\n",
    "long unquoted label": "r," + "W" * 200_000 + ",1,0.1,4.2\n",
    "quoted numbers": 'r,W,"1",0.1,"4.2"\n',
    "quoted record over lines": 'r,"W\nLAN",0,0.1,4.2\n"r\n\n",W,1,0.2,3\nr,W,2,0.3,\n',
    "quoted record then a bad row": 'r,"W\nLAN",0,0.1,4.2\nr,W,x,0.1,4\n',
    "bad row then a stray carriage return": "r,W,x,0.1,4\nr,W\rLAN,1,0.1,4.2\n",
    "hash in a label": "r#1,#W,1,0.1,4.2\nr#1,#W,2,0.1,4.2 # note\n",
    "blank lines": "\n\n\n\nr,W,1,0.1,4.2\n\n\n\nr,W,x,0.1,4\n",
    "float epoch": "r,W,1.0,0.1,4.2\n",
    "trailing comma": "r,W,1,0.1,4.2,\n",
}


class TestNumpySlicesMatchTheReference:
    @pytest.mark.parametrize("slice_rows", [1, 2, 3, trace_io.SLICE_ROWS])
    @pytest.mark.parametrize("body", EDGE_BODIES.values(), ids=EDGE_BODIES.keys())
    def test_edge_rows_read_as_the_reference_reads_them(self, body, slice_rows):
        text = _between_plain_rows(body)
        with mock.patch.object(trace_io, "SLICE_ROWS", slice_rows):
            assert outcome(streamed_read, text) == outcome(reference_read, text)

    def test_long_label_still_hits_the_field_limit(self):
        text = _between_plain_rows(EDGE_BODIES["long unquoted label"])
        with pytest.raises(TraceParseError) as exc:
            streamed_read(text)
        assert str(exc.value) == "line 5: field larger than field limit (131072)"

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.text(st.sampled_from(list("0123456789.+-_eanfW, #\t\"\r\n\x00\x1c\x85"
                                                  "١\u2003")), max_size=12),
                    max_size=12),
           SLICES)
    def test_any_lines_read_as_the_reference_reads_them(self, lines, slice_rows):
        text = _between_plain_rows("".join(line + "\n" for line in lines))
        with mock.patch.object(trace_io, "SLICE_ROWS", slice_rows):
            assert outcome(streamed_read, text) == outcome(reference_read, text)


class TestNumpyPath:
    @pytest.mark.parametrize("ending", ["\n", "\r\n"])
    def test_simulated_file_is_read_without_csv(self, tmp_path, capsys, ending):
        assert main(["simulate", "--runs", "240", "--out", str(tmp_path)]) == 0
        path = tmp_path / "traces.csv"
        text = path.read_text(encoding="utf-8").replace("\n", ending)
        path.write_text(text, encoding="utf-8", newline="")
        with mock.patch.object(trace_io, "_csv_rows", side_effect=AssertionError), \
                open(path, newline="", encoding="utf-8") as fh:
            traces = read_traces(fh)
        assert len(traces) == 480
        assert [(t.run_id, t.interface_label, t.samples) for t in traces] == \
            reference_read(text.replace("\r\n", "\n"))


    @pytest.mark.parametrize("ending", ["\n", "\r\n"])
    @pytest.mark.parametrize("cell", ["", " ", "\t"])
    def test_slice_with_a_blank_last_cell_skips_numpy(self, ending, cell):
        # NumPy's reader refuses such a cell only after parsing the rows
        # before it, so the slice goes to csv without that parse.
        rows = [f"r,WLAN,{t},0.1,{cell if t % 7 == 6 else 4.2}" for t in range(21)]
        text = ending.join([",".join(HEADER), *rows, ""])
        with mock.patch.object(trace_io.np, "loadtxt", side_effect=AssertionError), \
                mock.patch.object(trace_io, "SLICE_ROWS", 7):
            traces = read_traces(io.StringIO(text, newline=""))
        assert [(t.run_id, t.interface_label, t.samples) for t in traces] == \
            reference_read(text.replace("\r\n", "\n"))

class TestReadMemory:
    # The tracemalloc peak of `read_traces` over the file below when every
    # slice was split by csv and converted by `int` and `float` (Python
    # 3.11.7, NumPy 2.4.6). Views of each slice's NumPy table, kept in place
    # of copies, would hold every row's keys and raise it by megabytes.
    CSV_READER_PEAK_BYTES = 16_497_665
    # Run in a fresh interpreter: how much CPython allocates for an object
    # depends on what the process did before (free lists, the layout of a
    # class's attribute dicts) by tens of KB. Objects taken from the free
    # lists are not traced, and a full collection empties those lists, so
    # one is made before the read and none during it.
    MEASURE = """if True:
        import gc, sys, tracemalloc
        from qoehandoff.trace_io import read_traces

        def read():
            with open(sys.argv[1], newline="", encoding="utf-8") as fh:
                return read_traces(fh)

        read()
        gc.collect()
        gc.disable()
        tracemalloc.start()
        traces = read()
        print(len(traces), tracemalloc.get_traced_memory()[1])
    """

    def test_peak_is_no_higher_than_the_csv_readers(self, tmp_path, capsys):
        assert main(["simulate", "--runs", "2400", "--out", str(tmp_path)]) == 0
        done = subprocess.run([sys.executable, "-c", self.MEASURE, str(tmp_path / "traces.csv")],
                              env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
                              capture_output=True, text=True, check=True)
        count, peak = map(int, done.stdout.split())
        assert count == 4800
        assert peak <= self.CSV_READER_PEAK_BYTES
