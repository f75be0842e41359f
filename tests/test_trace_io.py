"""CSV trace schema: parsing, validation, canonical writing."""

import csv
import io
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qoehandoff import trace_io
from qoehandoff.errors import TraceParseError, TraceValidationError
from qoehandoff.netsim import generate_run, roaming_scenario
from qoehandoff.trace_io import (HEADER, DelayTrace, read_traces,
                                 traces_from_run, write_traces)

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

    def test_accepts_bytes_and_stream(self):
        import io
        assert len(read_traces(SAMPLE.encode())) == 3
        assert len(read_traces(io.StringIO(SAMPLE))) == 3

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

    def test_precision_survives_round_trip(self):
        trace = DelayTrace("r", "WLAN", [0], [0.123456789], [3.987654321])
        restored = read_traces(write_traces([trace]))[0]
        assert restored.samples[0][1] == pytest.approx(0.123456789, rel=1e-9)
        assert restored.samples[0][2] == pytest.approx(3.987654321, rel=1e-9)


class TestSimulatorBridge:
    def test_traces_from_run_conserves_samples(self):
        cfg = roaming_scenario(seed=0, runs=1, duration_epochs=30)
        run = generate_run(cfg, 0)
        traces = traces_from_run(run, ["WLAN", "CDMA2000"], "run000")
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
            traces.extend(traces_from_run(run, ["WLAN", "CDMA2000"],
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
        (trace, _) = traces_from_run(run, ["WLAN", "CDMA2000"], "run000")
        assert trace.epochs.tolist() == list(range(5))
        assert run.delays_s[0].flags.writeable and run.mos[0].flags.writeable


# The row-by-row reader and writer that the column passes replaced, kept
# as the reference they must match. A trace is (run_id, interface,
# samples), a sample (epoch, rtt_s, mos or None).

def reference_read(text):
    reader = csv.reader(io.StringIO(text))
    assert next(reader) == HEADER
    groups = {}
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


def reference_write(traces):
    lines = [csv_line(HEADER)]
    for run_id, interface, samples in sorted(traces, key=lambda t: t[:2]):
        for epoch, rtt, mos in samples:
            lines.append(csv_line([run_id, interface, epoch, format(rtt, ".9g"),
                                   "" if mos is None else format(mos, ".9g")]))
    return "".join(lines)


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


class TestMatchesRowByRowReference:
    @settings(max_examples=100, deadline=None)
    @given(TRACES)
    def test_writer_emits_the_same_bytes(self, traces):
        columnar = [DelayTrace(run_id, label, [s[0] for s in samples],
                               [s[1] for s in samples],
                               [np.nan if s[2] is None else s[2] for s in samples])
                    for run_id, label, samples in traces]
        assert write_traces(columnar) == reference_write(traces)

    @settings(max_examples=100, deadline=None)
    @given(TRACES, SLICES)
    def test_reader_returns_the_same_values(self, traces, slice_rows):
        text = reference_write(traces)
        with mock.patch.object(trace_io, "SLICE_ROWS", slice_rows):
            assert columnar_read(text) == reference_read(text)

    @settings(max_examples=200, deadline=None)
    @given(TRACES, SLICES, st.data())
    def test_reader_fails_the_same_way_on_an_edited_file(self, traces, slice_rows,
                                                          data):
        # One row edited or added: a cell replaced, dropped or added, or a
        # blank row or a copy of the row put before it.
        rows = list(csv.reader(io.StringIO(reference_write(traces))))
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
