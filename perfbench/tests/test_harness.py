"""The parent: digest judging, BENCHMARK.json, --list, --compare, exits."""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import child, harness, layers
from perfbench.workloads import WORKLOADS, Workload, run_direct

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
SPEC = harness.load_spec()


def _tiny_workload(golden):
    from repro.api import scaled_cluster
    from repro.runner.spec import RunSpec

    def build(seed):
        return [RunSpec(
            kind="sysbench", seed=seed,
            config=(scaled_cluster(0.05, hosts=1, vms_per_host=2, seed=seed),
                    8 * 1024 * 1024, 4, 2),
        )]

    return Workload(name="tiny", build=build, run=run_direct,
                    check=lambda payloads, info, scratch: {}, golden=golden)


def _round(workload, tmp_path, seed=0):
    run = harness.WorkloadRun(workload.name)
    result = child.run_round(workload, seed, budget_s=0.0, min_samples=2,
                             scratch_root=tmp_path)
    run.walls.extend(result["walls"])
    run.setup_s.append(0.1)
    run.rss_mb.append(result["peak_rss_mb"])
    run.absorb(result)
    return run


def test_a_wrong_golden_digest_fails_every_sample(tmp_path):
    run = _round(_tiny_workload("0" * 64), tmp_path)
    rate = run.end_to_end(seed=0)["error_rate"]
    assert rate["attempted"] == 2
    assert rate["failed"] == 2
    assert rate["median"] == 1.0
    assert not any(tmp_path.iterdir())  # scratch directories removed


def test_other_seeds_check_samples_against_the_first(tmp_path):
    run = _round(_tiny_workload("0" * 64), tmp_path, seed=4)
    assert run.end_to_end(seed=4)["error_rate"]["median"] == 0.0
    run.digests.append("f" * 64)
    assert run.failures(seed=4) == 1


def test_wrong_digest_run_exits_1_with_a_failed_result_line(
        tmp_path, monkeypatch, capsys):
    def fake_measure(names, seed, *args):
        run = harness.WorkloadRun(names[0], setup_s=[0.2], walls=[1.0, 1.1],
                                  rss_mb=[50.0], digests=["a" * 64] * 4,
                                  golden="b" * 64)
        return {names[0]: run}

    monkeypatch.setattr(harness, "measure", fake_measure)
    rc = harness.main(["--workload", "sort_hdd", "--seconds", "1",
                       "--trace", "0", "--out", str(tmp_path / "b.json")])
    assert rc == 1
    line = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert line["correct"] is False
    assert line["attempted"] == line["failed"] == 4
    assert set(line["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    doc = json.loads((tmp_path / "b.json").read_text())
    assert doc["workloads"]["sort_hdd"]["end_to_end"]["error_rate"]["median"] == 1.0


def test_benchmark_json_matches_the_registry():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    names = ([w["name"] for w in SPEC["workloads"]]
             + [m["name"] for m in SPEC["end_to_end"]]
             + [m["name"] for m in SPEC["per_layer"]])
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"}
        assert 0 < len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert harness.E2E_UNITS[m["name"]] == m["unit"]
        assert m["better"] in ("lower", "higher")
        assert 0 < m["bound"] <= 0.25
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
        assert layers.METRIC_UNITS[m["name"]] == m["unit"]
        assert m["better"] in ("lower", "higher")
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


def test_benchmark_json_command_stays_inside_its_paths():
    assert SPEC["paths"] == ["perfbench"]
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    assert 1 <= SPEC["run_seconds"] <= 60


def test_list_prints_every_workload_and_metric(capsys):
    assert harness.main(["--list"]) == 0
    out = capsys.readouterr().out
    for w in SPEC["workloads"]:
        assert w["name"] in out and w["why"] in out
    for m in SPEC["end_to_end"] + SPEC["per_layer"] + [harness.ERROR_RATE]:
        assert m["name"] in out
    assert "wall_s on sort_ssd; no change on sort_hdd" in out


def _doc(seed, walls, digest="d" * 64, events=100):
    e2e = {
        "wall_s": {"unit": "s", **harness.stats.summarize(walls)},
        "setup_s": {"unit": "s", **harness.stats.summarize([0.3, 0.31, 0.29])},
        "peak_rss_mb": {"unit": "MB", **harness.stats.summarize([50.0, 50.1])},
        "error_rate": {"unit": "ratio", **harness.stats.summarize([0.0]),
                       "attempted": 5, "failed": 0},
    }
    return {"seed": seed, "workloads": {
        name: {"digest": digest, "end_to_end": e2e,
               "per_layer": {"sim.events": {"value": events, "unit": "count"}}}
        for name in WORKLOADS
    }}


def test_compare_labels_every_metric_and_workload():
    lines, ok = harness.compare(_doc(0, [1.0, 1.01, 0.99]),
                                _doc(0, [1.0, 1.02, 0.98]), SPEC)
    assert ok
    rows = [line for line in lines[1:] if line.split()[-1] == "within"]
    assert len(rows) == len(WORKLOADS) * (len(SPEC["end_to_end"]) + 1)


def test_compare_flags_regressions_and_digest_mismatches():
    lines, ok = harness.compare(_doc(0, [1.0, 1.01, 0.99]),
                                _doc(0, [1.5, 1.51, 1.49]), SPEC)
    assert not ok and any(line.endswith("worse") for line in lines)
    lines, ok = harness.compare(_doc(0, [1.0]), _doc(0, [1.0], "e" * 64,
                                                     events=90), SPEC)
    assert not ok
    assert any("digest mismatch" in line for line in lines)
    assert any("sim.events changed: 100 -> 90" in line for line in lines)
    # Different seeds: digests are not comparable.
    _, ok = harness.compare(_doc(0, [1.0]), _doc(1, [1.0], "e" * 64), SPEC)
    assert ok


def test_compare_two_files_from_the_command_line(tmp_path, capsys):
    base, new = tmp_path / "base.json", tmp_path / "new.json"
    base.write_text(json.dumps(_doc(0, [1.0, 1.01, 0.99])))
    new.write_text(json.dumps(_doc(0, [0.5, 0.51, 0.49])))
    assert harness.main(["--compare", str(base), str(new)]) == 0
    assert "better" in capsys.readouterr().out
    assert harness.main(["--compare", str(new), str(base)]) == 1


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    root = Path(harness.__file__).resolve().parent.parent
    shutil.copy(root / "BENCHMARK.json", tmp_path)
    shutil.copytree(root / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sort_hdd",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.mark.parametrize("argv", [
    ["--quick", "--repeats", "1"],
    ["--trace-overhead", "0.2"],
    ["--trace-overhead", "0.2", "fig2_single_pair"],
])
def test_ci_invocations_of_repro_bench_still_parse(argv):
    from repro.bench.harness import build_bench_parser
    from repro.bench.scenarios import GATE_SCENARIO, SCENARIOS

    args = build_bench_parser().parse_args(argv)
    assert all(name in SCENARIOS for name in args.scenarios)
    assert GATE_SCENARIO in SCENARIOS
