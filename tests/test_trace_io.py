"""CSV trace schema: parsing, validation, canonical writing."""

import numpy as np
import pytest

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
            DelayTrace("r", "WLAN", ((1, 0.1, None), (1, 0.2, None)))

    def test_rtt_must_be_positive(self):
        with pytest.raises(TraceValidationError):
            DelayTrace("r", "WLAN", ((0, 0.0, None),))

    @pytest.mark.parametrize("rtt", ["nan", "inf", "1e400", "-inf"])
    def test_rtt_must_be_finite(self, rtt):
        text = f"run_id,interface,epoch,rtt_s,mos\nr,WLAN,0,0.1,\nr,WLAN,3,{rtt},\n"
        with pytest.raises(TraceValidationError, match="run r/WLAN epoch 3: rtt_s"):
            read_traces(text)

    def test_mos_range_enforced(self):
        with pytest.raises(TraceValidationError):
            DelayTrace("r", "WLAN", ((0, 0.1, 5.5),))
        with pytest.raises(TraceValidationError):
            read_traces("run_id,interface,epoch,rtt_s,mos\nr,WLAN,0,0.1,0.5\n")


class TestWrite:
    def test_round_trip_text(self):
        traces = read_traces(SAMPLE)
        assert read_traces(write_traces(traces)) == traces

    def test_header_first_line(self):
        text = write_traces(read_traces(SAMPLE))
        assert text.splitlines()[0] == ",".join(HEADER)

    def test_canonical_ordering(self):
        # Writing is sorted, so write(read(write(x))) == write(x).
        text = write_traces(read_traces(SAMPLE))
        assert write_traces(read_traces(text)) == text

    def test_precision_survives_round_trip(self):
        trace = DelayTrace("r", "WLAN", ((0, 0.123456789, 3.987654321),))
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
