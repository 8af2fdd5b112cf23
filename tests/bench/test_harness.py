"""The bench harness: one tiny scenario end-to-end + schema checks."""

import json

import pytest

from repro.api import scaled_testbed
from repro.bench import (
    GATE_SCENARIO,
    SCENARIOS,
    BenchError,
    Baseline,
    BenchScenario,
    bench_payload_digest,
    run_scenario,
    write_bench_file,
)
from repro.core.solution import Solution
from repro.runner.kinds import execute_spec
from repro.runner.spec import RunSpec
from repro.virt.pair import DEFAULT_PAIR
from repro.workloads.profiles import SORT


def _tiny_specs():
    # The golden-digest job: sort at scale 0.05 on 2 hosts x 2 VMs.
    return [
        RunSpec(
            kind="job",
            seed=0,
            config=(
                scaled_testbed(SORT, scale=0.05, hosts=2, vms_per_host=2,
                               seeds=(0,)),
                Solution.uniform(DEFAULT_PAIR, 2),
            ),
        )
    ]


def _tiny_scenario(expected_digest=None):
    if expected_digest is None:
        payload = json.loads(
            json.dumps(execute_spec(_tiny_specs()[0]), sort_keys=True)
        )
        expected_digest = bench_payload_digest([payload])
    return BenchScenario(
        name="tiny",
        make_specs=_tiny_specs,
        repeats=2, quick_repeats=1, warmup=0,
        expected_digest=expected_digest,
        baseline=Baseline(wall_s=1.0, events=10548, events_per_s=10548.0),
    )


def test_run_scenario_end_to_end():
    timing = run_scenario(_tiny_scenario(), repeats=2)
    assert timing.events > 0
    assert timing.wall_s > 0
    assert timing.events_per_s == pytest.approx(timing.events / timing.wall_s)
    assert timing.rss_mb > 0
    assert len(timing.walls) == 2
    # Speedup is baseline wall time over measured wall time (the
    # tiny scenario's baseline wall is 1.0 s).
    assert timing.speedup == pytest.approx(1.0 / timing.wall_s, rel=1e-6)
    # Median of two repeats is their mean.
    assert timing.wall_s == pytest.approx(sum(timing.walls) / 2)


def test_run_scenario_rejects_digest_drift():
    bad = _tiny_scenario(expected_digest="0" * 64)
    with pytest.raises(BenchError):
        run_scenario(bad, repeats=1)


def test_bench_file_schema(tmp_path):
    timing = run_scenario(
        SCENARIOS["sysbench"], repeats=1
    )
    out = tmp_path / "BENCH_test.json"
    path = write_bench_file([timing], mode="quick", out=str(out))
    assert path == str(out)
    doc = json.loads(out.read_text())

    for key in ("rev", "version", "mode", "baseline_rev", "scenarios"):
        assert key in doc
    assert doc["mode"] == "quick"

    entry = doc["scenarios"]["sysbench"]
    assert isinstance(entry["events"], int) and entry["events"] > 0
    assert entry["wall_s"] > 0
    assert entry["events_per_s"] > 0
    assert entry["rss_mb"] > 0
    assert entry["digest"] == SCENARIOS["sysbench"].expected_digest
    assert len(entry["walls"]) == 1
    assert entry["speedup"] > 0
    for key in ("wall_s", "events", "events_per_s"):
        assert entry["baseline"][key] > 0


def test_registry_shape():
    assert set(SCENARIOS) == {
        "sysbench", "fig2_single_pair", "sort", "faulty_job", "scale_sweep",
        "multijob", "ssd_sort",
    }
    assert GATE_SCENARIO in SCENARIOS
    for scenario in SCENARIOS.values():
        assert len(scenario.expected_digest) == 64
        int(scenario.expected_digest, 16)  # hex
        assert scenario.baseline.events > 0
        assert scenario.baseline.wall_s > 0
        assert scenario.repeats >= 1
    # Quick mode keeps the gate scenario but drops the heavy sweep.
    assert SCENARIOS[GATE_SCENARIO].in_quick
    assert not SCENARIOS["scale_sweep"].in_quick


def test_cli_bench_subcommand(tmp_path, capsys):
    from repro.cli import main

    out = tmp_path / "bench.json"
    rc = main(["bench", "sysbench", "--repeats", "1", "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert "sysbench" in doc["scenarios"]
    assert capsys.readouterr().out.strip() == str(out)


def test_cli_gate_reads_wall_time_not_events_per_s(tmp_path, monkeypatch):
    """A scenario that got faster by doing fewer events passes the gate."""
    import dataclasses

    from repro.cli import main

    def gate_on(baseline):
        scenario = dataclasses.replace(
            _tiny_scenario(), name=GATE_SCENARIO, baseline=baseline)
        monkeypatch.setitem(SCENARIOS, GATE_SCENARIO, scenario)
        return main(["bench", GATE_SCENARIO, "--repeats", "1",
                     "--out", str(tmp_path / "b.json"), "--gate", "2"])

    # Far slower baseline wall, absurd baseline events/s: passes.
    assert gate_on(Baseline(wall_s=1e6, events=1, events_per_s=1e12)) == 0
    # Baseline wall far faster than any real run: fails.
    assert gate_on(Baseline(wall_s=1e-9, events=1, events_per_s=1e-9)) == 1


def test_cli_bench_unknown_scenario():
    from repro.cli import main

    assert main(["bench", "nope"]) == 2
    assert main(["bench", "--profile", "nope"]) == 2


def test_run_trace_overhead_audits_both_sides():
    from repro.bench.harness import run_trace_overhead

    probe = run_trace_overhead(SCENARIOS["sysbench"], repeats=1)
    assert probe["scenario"] == "sysbench"
    assert probe["events"] > 0
    assert probe["untraced_events_per_s"] > 0
    assert probe["traced_events_per_s"] > 0
    # Tracing costs something but must never change the payloads (the
    # digest audit inside run_trace_overhead would have raised).
    assert 0 < probe["traced_ratio"] <= 1.5


def test_run_trace_overhead_refuses_an_already_traced_process(
    monkeypatch, tmp_path
):
    from repro.bench.harness import run_trace_overhead
    from repro.obs import capture

    monkeypatch.setenv(capture.ENV_TRACE_OUT, str(tmp_path))
    with pytest.raises(BenchError):
        run_trace_overhead(SCENARIOS["sysbench"], repeats=1)


def test_cli_bench_trace_overhead(capsys):
    from repro.cli import main

    assert main(["bench", "sysbench", "--trace-overhead", "0.01"]) == 0
    err = capsys.readouterr().err
    assert "trace-overhead sysbench" in err
    assert "trace overhead ok" in err
    # An impossible bound fails the gate.
    assert main(["bench", "sysbench", "--trace-overhead", "100"]) == 1
    assert "FAIL" in capsys.readouterr().err
