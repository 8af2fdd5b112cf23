"""fig-ctrl — online controller regret vs. the offline-optimal plan.

Not a figure from the paper: the paper's Algorithm 1 is offline (it
picks a plan from pre-measured tables).  This experiment closes the
loop — the :mod:`repro.ctrl` controller waits on the job's phase
boundaries and switches schedulers mid-job — and scores each
policy by *regret* against exhaustive plan enumeration under three
conditions: fault-free, fault-injected, and with a background
co-tenant write stream (multi-job interference).

Per condition, every distinct static plan over the restricted pair set
{ad, cc} runs as a greedy-controlled job (so policies and oracle
entries share specs, trajectories, and cache keys); the best static
duration is the offline optimum and ``regret = duration − optimum``.
The greedy policy replays Algorithm 1's plan (searched fault-free, as
the paper would); hysteresis charges the measured switch cost; the
bandit trains ε-greedy over the same arms, threading its learned state
between runs, then evaluates with ε=0.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..core.heuristic import HeuristicSearch, profile_single_pairs
from ..ctrl import (
    CtrlConfig,
    build_oracle,
    enumerate_static_plans,
    payload_duration,
    plan_labels,
    static_ctrl_config,
)
from ..faults import PRESETS
from ..mapreduce.job import MB
from ..metrics.summary import format_table
from ..runner import RunSpec, SweepJobRunner, SweepRunner, default_runner
from ..virt.pair import SchedulerPair
from ..workloads.profiles import SORT
from .base import ExperimentResult, ShapeCheck, render_obs_blame
from ..api import DEFAULT_SCALE, scaled_testbed

__all__ = ["run", "CTRL_PAIRS", "DEFAULT_POLICIES"]

#: Restricted pair set: the paper's sort picks (AS, DL) for the map
#: phase and the stock (CFQ, CFQ) for the tail — 4 static plans at
#: n_phases=2, cheap enough to enumerate exhaustively.
CTRL_PAIRS = ("ad", "cc")

DEFAULT_POLICIES = ("greedy", "hysteresis", "bandit")

#: Bandit training rounds (= arm count: untried-first covers each arm).
TRAIN_ROUNDS = len(CTRL_PAIRS)


def _mean(values: Sequence[float]) -> float:
    return sum(values) / len(values)


def _spec(testbed, ctrl: CtrlConfig, fault_plan, seed: int,
          label: str) -> RunSpec:
    return RunSpec(
        kind="controlled_job", seed=seed,
        config=(testbed.with_(seeds=(seed,)), ctrl, fault_plan),
        label=f"{label} seed={seed}",
    )


def _run_mean(sweep: SweepRunner, testbed, ctrl: CtrlConfig, fault_plan,
              seeds: Sequence[int], label: str) -> Dict:
    """Mean duration (plus control report) over ``seeds``."""
    payloads = sweep.run_specs(
        [_spec(testbed, ctrl, fault_plan, s, label) for s in seeds]
    )
    return {
        "duration": _mean([payload_duration(p) for p in payloads]),
        "plan": payloads[0]["ctrl"]["plan"],
        "switches": payloads[0]["ctrl"]["n_switches"],
        "stall": _mean([p["ctrl"]["switch_stall"] for p in payloads]),
        "payloads": payloads,
    }


def _offline_plan(scale: float, seeds: Sequence[int],
                  sweep: SweepRunner) -> List[str]:
    """Algorithm 1's fault-free pick over the restricted pair set."""
    pairs = [SchedulerPair.parse(p) for p in CTRL_PAIRS]
    runner = SweepJobRunner(
        scaled_testbed(SORT, scale=scale, seeds=seeds), sweep,
        label="fig-ctrl offline",
    )
    runner.prefetch_uniform(pairs)
    scores = profile_single_pairs(runner, pairs)
    result = HeuristicSearch(runner, scores, pairs).search()
    return list(plan_labels(result.solution))


def run(
    scale: float = DEFAULT_SCALE,
    seeds: Sequence[int] = (0,),
    sweep: Optional[SweepRunner] = None,
    controller: Optional[str] = None,
    faults: Optional[str] = "light",
) -> ExperimentResult:
    sweep = sweep if sweep is not None else default_runner()
    policies = ((controller,) if controller is not None
                else DEFAULT_POLICIES)
    testbed = scaled_testbed(SORT, scale=scale, seeds=seeds)
    n_phases = testbed.n_phases
    plans = enumerate_static_plans(
        [SchedulerPair.parse(p) for p in CTRL_PAIRS], n_phases
    )
    offline = _offline_plan(scale, seeds, sweep)
    fault_plan = PRESETS[faults or "light"]
    interference = int(128 * MB * scale)
    conditions = (
        ("fault-free", None, 0),
        ("faults", fault_plan, 0),
        ("interference", None, interference),
    )

    results: Dict[str, Dict] = {}
    for name, plan, noise_bytes in conditions:
        base = CtrlConfig(interference_bytes=noise_bytes)
        # The static landscape: every plan as a greedy-controlled run.
        statics = {}
        specs = []
        for static in plans:
            ctrl = static_ctrl_config(static, base=base)
            specs.extend(_spec(testbed, ctrl, plan, s,
                               f"static {'→'.join(static)} [{name}]")
                         for s in seeds)
        sweep.run_specs(specs)  # one parallel wave; reads below hit cache
        for static in plans:
            ctrl = static_ctrl_config(static, base=base)
            statics[static] = _run_mean(sweep, testbed, ctrl, plan, seeds,
                                        f"static {'→'.join(static)} [{name}]")
        oracle = build_oracle(plans, [statics[p]["duration"] for p in plans])

        measured: Dict[str, Dict] = {}
        if "greedy" in policies:
            ctrl = base.with_(policy="greedy", initial=offline[0],
                              phase_pairs=tuple(offline))
            measured["greedy"] = _run_mean(sweep, testbed, ctrl, plan, seeds,
                                           f"greedy [{name}]")
        if "hysteresis" in policies:
            ctrl = base.with_(policy="hysteresis", initial=offline[0],
                              phase_pairs=tuple(offline), cost_budget=5.0)
            measured["hysteresis"] = _run_mean(sweep, testbed, ctrl, plan,
                                               seeds, f"hysteresis [{name}]")
        if "bandit" in policies:
            state: tuple = ()
            eval_regrets = []
            for round_no in range(TRAIN_ROUNDS):
                train = base.with_(policy="bandit", initial=CTRL_PAIRS[0],
                                   arms=CTRL_PAIRS, epsilon=0.05,
                                   state=state)
                out = _run_mean(sweep, testbed, train, plan, (seeds[0],),
                                f"bandit train {round_no} [{name}]")
                state = tuple(
                    tuple(row) for row in out["payloads"][0]["ctrl"]["state"]
                )
                evaluate = train.with_(epsilon=0.0, state=state)
                ev = _run_mean(sweep, testbed, evaluate, plan, seeds,
                               f"bandit eval {round_no} [{name}]")
                eval_regrets.append(oracle.regret(ev["duration"]))
            measured["bandit"] = dict(ev, eval_regrets=eval_regrets)

        results[name] = {
            "oracle": oracle.rows(),
            "optimum": {"plan": "→".join(oracle.optimum_plan),
                        "duration": oracle.optimum_duration},
            "policies": {
                pol: dict(out, regret=oracle.regret(out["duration"]),
                          payloads=None)
                for pol, out in measured.items()
            },
        }

    return ExperimentResult(
        experiment_id="fig-ctrl",
        title="Online controller regret vs. offline-optimal plan",
        data={
            "scale": scale,
            "seeds": list(seeds),
            "pairs": list(CTRL_PAIRS),
            "offline_plan": offline,
            "conditions": results,
        },
        renderer=_render,
        checker=_check,
    )


def _render(result: ExperimentResult) -> str:
    rows = []
    for name, cond in result.data["conditions"].items():
        opt = cond["optimum"]
        rows.append([name, "offline-optimal", opt["plan"],
                     opt["duration"], 0.0, "-"])
        for pol, out in cond["policies"].items():
            rows.append([name, pol, "→".join(out["plan"]), out["duration"],
                         out["regret"], str(out["switches"])])
    table = format_table(
        ["condition", "policy", "plan", "duration", "regret", "switches"],
        rows,
        title=(f"regret vs. exhaustive enumeration over "
               f"{{{','.join(result.data['pairs'])}}} "
               f"(offline plan: {'→'.join(result.data['offline_plan'])}, "
               f"scale={result.data['scale']})"),
    )
    blame = render_obs_blame(result)
    return table + ("\n\n" + blame if blame else "")


def _check(result: ExperimentResult) -> List[ShapeCheck]:
    checks = []
    offline = result.data["offline_plan"]
    tol = 1e-6
    for name, cond in result.data["conditions"].items():
        for pol, out in cond["policies"].items():
            checks.append(ShapeCheck(
                f"{name}/{pol}: optimum lower-bounds the policy",
                out["regret"] >= -tol,
                f"regret {out['regret']:.3f}s",
            ))
    free = result.data["conditions"].get("fault-free", {})
    greedy = free.get("policies", {}).get("greedy")
    if greedy is not None:
        checks.append(ShapeCheck(
            "fault-free: greedy executes Algorithm 1's offline plan",
            list(greedy["plan"]) == list(offline),
            f"greedy {'→'.join(greedy['plan'])} vs offline "
            f"{'→'.join(offline)}",
        ))
    bandit = free.get("policies", {}).get("bandit")
    if bandit is not None:
        regrets = bandit["eval_regrets"]
        checks.append(ShapeCheck(
            "fault-free: bandit eval regret non-increasing over training",
            all(b <= a + tol for a, b in zip(regrets, regrets[1:])),
            " -> ".join(f"{r:.3f}s" for r in regrets),
        ))
    hysteresis = free.get("policies", {}).get("hysteresis")
    if greedy is not None and hysteresis is not None:
        checks.append(ShapeCheck(
            "fault-free: hysteresis never switches more than greedy",
            hysteresis["switches"] <= greedy["switches"],
            f"hysteresis {hysteresis['switches']} vs greedy "
            f"{greedy['switches']}",
        ))
    return checks
