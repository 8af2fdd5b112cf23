"""CLI tests (tiny scale so each invocation stays quick)."""

import re

import pytest

from repro.cli import build_parser, main, run_one
from repro.experiments.base import ExperimentResult
from repro.api import default_seeds, validate_scale
from repro.runner import SweepRunner


def test_parser_accepts_known_experiments():
    args = build_parser().parse_args(["fig8", "--scale", "0.05", "--seeds", "0,1"])
    assert args.experiment == "fig8"
    assert args.scale == 0.05
    assert args.seeds == (0, 1)


def test_parser_rejects_unknown_experiment():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["fig99"])


def test_parser_rejects_bad_seeds():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["fig8", "--seeds", "x,y"])


def test_parser_rejects_empty_seeds():
    # `--seeds ""` used to parse to an empty tuple and crash downstream.
    with pytest.raises(SystemExit):
        build_parser().parse_args(["fig8", "--seeds", ""])
    with pytest.raises(SystemExit):
        build_parser().parse_args(["fig8", "--seeds", ","])


def test_main_rejects_negative_seeds_naming_the_flag(capsys):
    # `--seeds -1` used to reach numpy and exit 1 with a traceback.
    with pytest.raises(SystemExit) as exc:
        main(["fig8", "--seeds", "-1"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--seeds" in err and "-1" in err


@pytest.mark.parametrize("scale", ["0", "-0.5", "1.5", "nan"])
def test_parser_rejects_out_of_range_scale(scale):
    with pytest.raises(SystemExit):
        build_parser().parse_args(["fig8", "--scale", scale])


def test_parser_accepts_boundary_scale():
    assert build_parser().parse_args(["fig8", "--scale", "1.0"]).scale == 1.0


def test_parser_rejects_bad_jobs():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["fig8", "--jobs", "0"])
    with pytest.raises(SystemExit):
        build_parser().parse_args(["fig8", "--jobs", "two"])


def test_parser_runner_flags(tmp_path):
    args = build_parser().parse_args(
        ["fig8", "--jobs", "2", "--cache-dir", str(tmp_path), "--no-cache",
         "--quiet"]
    )
    assert args.jobs == 2
    assert args.cache_dir == str(tmp_path)
    assert args.no_cache
    assert args.quiet


def test_validate_scale_bounds():
    assert validate_scale(0.5) == 0.5
    assert validate_scale(1.0) == 1.0
    for bad in (0, -1, 1.01):
        with pytest.raises(ValueError):
            validate_scale(bad)


def test_default_seeds_extends_past_paper_set():
    # Used to silently truncate to the paper's three seeds.
    assert default_seeds(1) == (0,)
    assert default_seeds(3) == (0, 1, 2)
    assert default_seeds(5) == (0, 1, 2, 3, 4)


def test_checker_invoked_once_per_result():
    calls = []

    def checker(result):
        calls.append(1)
        return []

    result = ExperimentResult("x", "t", {}, renderer=lambda r: "", checker=checker)
    result.render()
    assert result.all_checks_pass
    result.render()
    assert len(calls) == 1


def test_main_runs_fig8_small(tmp_path, capsys):
    rc = main(["fig8", "--scale", "0.05", "--seeds", "0",
               "--cache-dir", str(tmp_path)])
    out = capsys.readouterr().out
    assert "### fig8" in out
    assert "wordcount" in out
    assert "simulations executed" in out
    assert rc in (0, 1)  # shape checks may not hold at toy scale


def test_main_warm_cache_output_identical_and_simulation_free(tmp_path, capsys):
    argv = ["fig8", "--scale", "0.05", "--seeds", "0",
            "--cache-dir", str(tmp_path), "--quiet"]
    main(argv)
    cold = capsys.readouterr().out
    main(argv)
    warm = capsys.readouterr().out
    assert warm == cold

    main(["fig8", "--scale", "0.05", "--seeds", "0",
          "--cache-dir", str(tmp_path)])
    assert "simulations executed 0" in capsys.readouterr().out


def test_main_parallel_output_identical_to_serial(tmp_path, capsys):
    main(["fig8", "--scale", "0.05", "--seeds", "0", "--quiet",
          "--jobs", "1", "--cache-dir", str(tmp_path / "serial")])
    serial = capsys.readouterr().out
    main(["fig8", "--scale", "0.05", "--seeds", "0", "--quiet",
          "--jobs", "2", "--cache-dir", str(tmp_path / "parallel")])
    parallel = capsys.readouterr().out
    assert serial == parallel


def test_main_reports_bad_repro_jobs_env(monkeypatch, capsys):
    monkeypatch.setenv("REPRO_JOBS", "lots")
    rc = main(["fig8", "--scale", "0.05", "--seeds", "0"])
    assert rc == 2
    assert "REPRO_JOBS" in capsys.readouterr().err


def test_run_one_returns_check_status(tmp_path, capsys):
    with SweepRunner(jobs=1, cache_dir=tmp_path) as sweep:
        ok = run_one("fig8", sweep, scale=0.05, seeds=(0,), quiet=True)
    assert isinstance(ok, bool)
    assert "fig8" in capsys.readouterr().out


def _ran_lines(err):
    return [line for line in err.splitlines() if line.startswith("  ran ")]


def test_main_prints_one_ran_line_per_executed_run(tmp_path, capsys):
    argv = ["fig8", "--scale", "0.05", "--seeds", "0", "--jobs", "1",
            "--cache-dir", str(tmp_path)]
    main(argv)
    cold = capsys.readouterr()
    # fig8 asks for its three benchmarks twice: three runs, three memo hits.
    assert "simulations executed 3, cache hits 0, memo hits 3" in cold.out
    ran = _ran_lines(cold.err)
    assert [line.rsplit(" (", 1)[0] for line in ran] == [
        f"  ran {name} [(CFQ, CFQ) -> 0] seed=0"
        for name in ("wordcount", "wordcount-nocombiner", "sort")
    ]
    assert all(re.fullmatch(r"  ran .+ \(\d+\.\ds\)", line) for line in ran)

    main(argv)  # warm: every run is a disk-cache hit
    warm = capsys.readouterr()
    assert "simulations executed 0, cache hits 3, memo hits 3" in warm.out
    assert _ran_lines(warm.err) == []

    main(argv[:-2] + ["--cache-dir", str(tmp_path / "quiet"), "--quiet"])
    assert capsys.readouterr().err == ""


def test_main_progress_renders_a_sweep_line(tmp_path, capsys):
    rc = main(["fig8", "--scale", "0.05", "--seeds", "0", "--jobs", "1",
               "--cache-dir", str(tmp_path), "--progress"])
    assert rc in (0, 1)
    captured = capsys.readouterr()
    assert "sweep:" in captured.err
    assert "cache" in captured.err and "memo" in captured.err
    # The per-run "ran ..." lines are replaced by the progress line.
    assert "  ran " not in captured.err
    # ...and ends with a newline so the profile summary starts clean.
    assert "### fig8" in captured.out


def test_render_obs_blame_folds_into_experiment_output():
    from repro.experiments.base import render_obs_blame

    blame = {
        "run.trace.jsonl": {
            "makespan": 10.0, "segments": 2,
            "phases": {"map": {
                "duration": 10.0, "task": 8.0, "fault": 2.0,
                "switch": 0.0, "idle": 0.0, "io_wait": 3.0,
                "service": 4.0,
            }},
            "devices": {}, "vms": {},
            "top_owners": [
                {"owner": "map1@h0v0", "kind": "task", "seconds": 8.0},
            ],
        },
    }
    result = ExperimentResult(
        "x", "t", {"obs": {"critical_path": blame}},
        renderer=lambda r: "",
    )
    text = render_obs_blame(result)
    assert "critical-path blame: run.trace.jsonl" in text
    assert "map1@h0v0 (8.000s)" in text

    untraced = ExperimentResult("x", "t", {}, renderer=lambda r: "")
    assert render_obs_blame(untraced) == ""
