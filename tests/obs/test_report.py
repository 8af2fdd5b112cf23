"""`repro report` end to end: trace artifacts in, tables and Chrome out.

One module-scoped fig8-style capture (a small fig8 benchmark run via the
real CLI with ``--trace-out``) feeds every test, so the expensive
simulation happens once.
"""

import json
import weakref

import pytest

from repro.cli import main
from repro.obs import report
from repro.obs.report import (
    device_rows,
    phase_durations,
    render_report,
    render_timeline,
    trace_files,
)
from repro.obs.export import load_jsonl
from repro.sim.tracing import TraceRecord


def rec(time, topic, **payload):
    return TraceRecord(time=time, topic=topic, payload=payload)


@pytest.fixture(scope="module")
def fig8_trace_dir(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("fig8-traces")
    trace_dir = tmp / "traces"
    code = main([
        "fig8", "--scale", "0.02", "--seeds", "0", "--jobs", "1",
        "--quiet", "--cache-dir", str(tmp / "cache"),
        "--trace-out", str(trace_dir),
    ])
    assert code == 0
    return trace_dir


def test_trace_out_writes_one_trace_per_run(fig8_trace_dir):
    # fig8 runs three benchmarks (wordcount, wordcount-nocombiner, sort),
    # and each leaves exactly one file: its trace.
    names = sorted(path.name for path in fig8_trace_dir.iterdir())
    assert len(names) == 3
    assert all(name.endswith(".trace.jsonl") for name in names), names


def test_report_cli_prints_phases_and_device_io(fig8_trace_dir, capsys, tmp_path):
    chrome_out = tmp_path / "fig8.chrome.json"
    code = main(["report", str(fig8_trace_dir),
                 "--chrome-out", str(chrome_out)])
    assert code == 0
    out = capsys.readouterr().out
    # Per-phase durations for every captured run...
    assert out.count("per-phase durations") == 3
    for phase in ("map", "shuffle", "reduce"):
        assert phase in out
    # ...and per-device I/O metrics (Dom0 disks and guest vdisks).
    assert "per-device I/O" in out
    assert "h0.sda" in out
    assert "xvda@h0v0" in out
    assert "mean lat ms" in out
    # The merged Chrome trace is valid trace-event JSON.
    data = json.loads(chrome_out.read_text())
    assert data["traceEvents"]
    assert {"phase:map", "phase:reduce"} <= {
        e["name"] for e in data["traceEvents"] if e["ph"] == "X"
    }


def test_report_cli_errors_cleanly_on_missing_path(capsys, tmp_path):
    code = main(["report", str(tmp_path / "nope")])
    assert code == 2
    err = capsys.readouterr().err
    # The failure is *named* so scripts can tell missing from empty.
    assert "MissingTraceError" in err


def test_report_cli_names_empty_traces(capsys, tmp_path):
    (tmp_path / "hollow.trace.jsonl").write_text("")
    code = main(["report", str(tmp_path)])
    assert code == 2
    assert "EmptyTraceError" in capsys.readouterr().err
    code = main(["report", str(tmp_path), "--json"])
    assert code == 2
    assert "EmptyTraceError" in capsys.readouterr().err


def test_trace_files_resolution(fig8_trace_dir, tmp_path):
    files = trace_files(fig8_trace_dir)
    assert len(files) == 3
    assert files == sorted(files)
    single = trace_files(files[0])
    assert single == [files[0]]
    with pytest.raises(FileNotFoundError):
        trace_files(tmp_path / "empty-nope")


def test_phase_durations_from_real_trace(fig8_trace_dir):
    records = load_jsonl(trace_files(fig8_trace_dir)[0])
    phases = phase_durations(records)
    assert set(phases) == {"map", "shuffle", "reduce"}
    start, end = phases["map"]
    assert end > start >= 0.0
    # Contiguity: shuffle starts where map ends, reduce where shuffle ends.
    assert phases["shuffle"][0] == phases["map"][1]
    assert phases["reduce"][0] == phases["shuffle"][1]


def test_device_rows_from_real_trace(fig8_trace_dir):
    from repro.obs.metrics import TraceMetrics

    records = load_jsonl(trace_files(fig8_trace_dir)[0])
    snapshot = TraceMetrics().replay(records).registry.snapshot()
    rows = device_rows(snapshot)
    devices = [row[0] for row in rows]
    assert any(d.endswith(".sda") for d in devices)
    assert any(d.startswith("xvda@") for d in devices)
    for row in rows:
        submitted, completed = row[1], row[2]
        assert submitted >= completed >= 0
        assert row[4] >= 0  # MB


def test_render_timeline_handles_empty_and_aligned_phases():
    assert "no job phase" in render_timeline({})
    text = render_timeline({"map": (0.0, 8.0), "reduce": (8.0, 10.0)},
                           width=20)
    assert "timeline [0.0s .. 10.0s]" in text
    assert "map" in text and "reduce" in text


def test_render_report_on_synthetic_records():
    text = render_report([
        rec(0.0, "job.start", name="j"),
        rec(1.0, "job.maps_done"),
        rec(2.0, "job.done", name="j"),
    ], title="t")
    assert "== t ==" in text
    assert "3 trace records" in text
    assert "per-phase durations" in text
    # No disk records: the device table is omitted, not empty.
    assert "per-device I/O" not in text


def test_report_cli_critical_path_tables(fig8_trace_dir, capsys):
    code = main(["report", str(fig8_trace_dir), "--critical-path"])
    assert code == 0
    out = capsys.readouterr().out
    # One critical-path + blame section per captured run.
    assert out.count("critical path") >= 3
    assert out.count("per-phase blame (critical-path seconds)") == 3
    assert "top owners:" in out


def test_report_json_document_schema(fig8_trace_dir, capsys):
    code = main(["report", str(fig8_trace_dir), "--json", "--critical-path"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema"] == "repro.report/1"
    assert len(doc["files"]) == 3
    for entry in doc["files"]:
        assert entry["records"] > 0
        assert set(entry["phases"]) == {"map", "shuffle", "reduce"}
        for ph in entry["phases"].values():
            assert ph["duration"] == ph["end"] - ph["start"]
        assert entry["devices"]
        assert all("device" in d and "submitted" in d
                   for d in entry["devices"])
        cp = entry["critical_path"]
        # Conservation, straight off the emitted document.
        seg_total = sum(s["duration"] for s in cp["segments"])
        assert seg_total == pytest.approx(cp["blame"]["makespan"], abs=1e-9)


def test_report_json_omits_critical_path_unless_asked(fig8_trace_dir, capsys):
    code = main(["report", str(fig8_trace_dir), "--json"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert all("critical_path" not in entry for entry in doc["files"])


def test_report_out_and_spans_out_write_files(fig8_trace_dir, capsys, tmp_path):
    out = tmp_path / "report.json"
    spans = tmp_path / "spans.json"
    code = main(["report", str(fig8_trace_dir), "--json", "--critical-path",
                 "--out", str(out), "--spans-out", str(spans)])
    assert code == 0
    assert f"wrote report to {out}" in capsys.readouterr().out
    doc = json.loads(out.read_text())
    assert doc["schema"] == "repro.report/1"
    span_doc = json.loads(spans.read_text())
    assert span_doc["traceEvents"]


def test_report_json_writes_the_chrome_trace(fig8_trace_dir, capsys, tmp_path):
    # --chrome-out used to be dropped silently in --json mode.
    chrome_out = tmp_path / "fig8.chrome.json"
    code = main(["report", str(fig8_trace_dir), "--json",
                 "--chrome-out", str(chrome_out)])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["schema"] == "repro.report/1"
    assert json.loads(chrome_out.read_text())["traceEvents"]


class _Records(list):
    """A loaded file's records; a list subclass, so it can be weakly
    referenced."""


@pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
def test_report_drops_each_file_before_loading_the_next(
    fig8_trace_dir, monkeypatch, as_json
):
    loaded = []

    def load_one(path):
        # Every earlier file's records are gone by the time this loads.
        assert all(ref() is None for ref in loaded), \
            "a report holds an earlier file's records"
        records = _Records(load_jsonl(path))
        loaded.append(weakref.ref(records))
        return records

    monkeypatch.setattr(report, "load_jsonl", load_one)
    if as_json:
        doc = report.report_json(fig8_trace_dir, critical=True)
        assert len(doc["files"]) == 3
    else:
        text = report.report_path(fig8_trace_dir, critical=True)
        assert text.count("trace records") == 3
    assert len(loaded) == 3
