"""CLI validation for the controller: friendly errors, the run command.

The regression under test: unknown ``--controller``/``--scheduler``/
pair names used to surface as a deep ``KeyError`` traceback; they must
now exit with a message listing the registered choices.
"""

import argparse

import pytest

from repro.cli import (
    _parse_cost,
    _parse_pair,
    _parse_plan,
    _parse_policy,
    main,
    run_controlled,
)
from repro.iosched.registry import UnknownSchedulerError, resolve_name

FAST = ["--scale", "0.05", "--hosts", "2", "--vms-per-host", "2"]


# -- registry error contract ---------------------------------------------------------


def test_resolve_name_rejects_unknown_names_with_the_menu():
    with pytest.raises(UnknownSchedulerError) as exc:
        resolve_name("bfq")
    # Dual inheritance: registry callers keep catching KeyError, input
    # validators (the CLI) catch ValueError — same exception object.
    assert isinstance(exc.value, KeyError)
    assert isinstance(exc.value, ValueError)
    message = str(exc.value)
    assert message.startswith("unknown scheduler 'bfq'")
    assert "choose from" in message
    assert "cfq" in message and "deadline" in message


# -- argument parsers ----------------------------------------------------------------


def test_policy_parser_lists_registered_policies():
    assert _parse_policy("greedy") == "greedy"
    with pytest.raises(argparse.ArgumentTypeError) as exc:
        _parse_policy("nope")
    assert "bandit, greedy, hysteresis" in str(exc.value)


def test_pair_parser_lists_choices_for_bad_labels_and_names():
    assert _parse_pair("ad") == "ad"
    assert _parse_pair("anticipatory,deadline") == "ad"
    with pytest.raises(argparse.ArgumentTypeError) as exc:
        _parse_pair("zz")
    assert "[cdan]" in str(exc.value)
    with pytest.raises(argparse.ArgumentTypeError) as exc:
        _parse_pair("bfq,cfq")
    assert "unknown scheduler 'bfq'" in str(exc.value)
    assert "cfq" in str(exc.value)


def test_plan_parser_splits_labels_and_rejects_empty_plans():
    assert _parse_plan("ad,cc") == ("ad", "cc")
    with pytest.raises(argparse.ArgumentTypeError):
        _parse_plan(",")
    with pytest.raises(argparse.ArgumentTypeError):
        _parse_plan("ad,zz")


def test_cost_parser_accepts_inf_and_rejects_garbage():
    assert _parse_cost("inf") == float("inf")
    assert _parse_cost("0") == 0.0
    with pytest.raises(argparse.ArgumentTypeError):
        _parse_cost("-1")
    with pytest.raises(argparse.ArgumentTypeError):
        _parse_cost("cheap")


# -- the run command -----------------------------------------------------------------


def test_run_with_a_controller_prints_the_control_report(capsys):
    rc = run_controlled(["--controller", "greedy"] + FAST)
    assert rc == 0
    out = capsys.readouterr().out
    assert "policy:     greedy" in out
    assert "plan:       ad -> cc" in out
    assert "detected maps_done" in out
    assert "switch to cc" in out


def test_run_without_a_controller_reports_the_static_plan(capsys):
    rc = run_controlled(["--initial", "ad"] + FAST)
    assert rc == 0
    out = capsys.readouterr().out
    assert "policy:     static" in out
    assert "switches:   0" in out


def test_run_rejects_unknown_controllers_at_parse_time(capsys):
    with pytest.raises(SystemExit) as exc:
        run_controlled(["--controller", "nope"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "unknown controller policy 'nope'" in err
    assert "bandit, greedy, hysteresis" in err


def test_run_rejects_a_negative_seed_naming_the_flag(capsys):
    # `--seed -1` used to reach numpy and exit 1 with a traceback.
    with pytest.raises(SystemExit) as exc:
        main(["run", "--seed", "-1"] + FAST)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--seed" in err and "-1" in err


def test_run_rejects_a_zero_count_naming_only_its_flag(capsys):
    # The five count flags shared one message, which said "jobs".
    with pytest.raises(SystemExit) as exc:
        main(["run", "--hosts", "0"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "argument --hosts: must be >= 1, got 0" in err
    assert "jobs" not in err


def test_run_rejects_unknown_pairs_with_choices_listed(capsys):
    with pytest.raises(SystemExit) as exc:
        run_controlled(["--plan", "ad,zz"])
    assert exc.value.code == 2
    assert "[cdan]" in capsys.readouterr().err


def test_run_rejects_mismatched_plan_lengths_cleanly(capsys):
    # Scenario validation (not argparse): plan shorter than n_phases.
    rc = run_controlled(["--controller", "greedy", "--plan", "ad",
                         "--n-phases", "2"] + FAST)
    assert rc == 2
    assert "repro run: error:" in capsys.readouterr().err


def test_run_rejects_a_plan_that_does_not_start_on_the_initial_pair(capsys):
    # The map phase runs on --initial; a plan naming another map pair
    # used to be dropped silently (zero switches, plan cc -> cc).
    rc = run_controlled(["--controller", "greedy", "--plan", "ad,cc",
                         "--initial", "cc"] + FAST)
    assert rc == 2
    err = capsys.readouterr().err
    assert "repro run: error:" in err
    assert "initial='cc'" in err


def test_main_dispatches_the_run_subcommand(capsys):
    rc = main(["run", "--controller", "hysteresis"] + FAST)
    assert rc == 0
    assert "policy:     hysteresis" in capsys.readouterr().out


def test_main_parser_validates_the_controller_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--controller", "nope", "fig-ctrl"])
    assert exc.value.code == 2
    assert "bandit, greedy, hysteresis" in capsys.readouterr().err
