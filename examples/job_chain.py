#!/usr/bin/env python3
"""Per-phase tuning of a Pig-style job chain (sort -> sort).

A chain of K jobs has 2K phases, so the solution space is S^(2K) —
16^4 = 65,536 plans for this two-job chain with all 16 pairs.  The
heuristic explores at most P x S of them.

    python examples/job_chain.py
"""

import time

from repro.core import ChainConfig, HeuristicSearch, profile_single_pairs
from repro.api import scaled_cluster, scaled_job
from repro.runner import SweepChainRunner, SweepRunner
from repro.virt import SchedulerPair
from repro.workloads import SORT

CANDIDATES = [SchedulerPair.parse(s) for s in ("cc", "ac", "ad", "dd", "dc", "nc")]


def main() -> None:
    scale = 0.125
    config = ChainConfig(
        cluster=scaled_cluster(scale),
        jobs=(scaled_job(SORT, scale), scaled_job(SORT, scale)),
        seeds=(0,),
    )
    # Serial and in-memory: every chain run simulates here, nothing is
    # written to disk.
    runner = SweepChainRunner(config, SweepRunner(jobs=1, use_cache=False))
    space = len(CANDIDATES) ** config.n_phases
    print(
        f"chain: sort -> sort (two-pass), {config.n_phases} phases, "
        f"{len(CANDIDATES)} candidate pairs -> S^P = {space} plans\n"
    )

    t0 = time.time()
    print("profiling the chain under each candidate pair...")
    scores = profile_single_pairs(runner, CANDIDATES)
    for pair in sorted(scores.totals, key=scores.totals.get):
        phases = "  ".join(f"{x:6.1f}" for x in scores.per_phase[pair])
        print(f"  {str(pair):12} phases [{phases}]  total {scores.totals[pair]:6.1f}s")

    print("\nrunning Algorithm 1 over the chain...")
    result = HeuristicSearch(runner, scores, CANDIDATES).search()
    best_pair, best_single = scores.best_single()
    print(f"  heuristic plan : {result.solution}")
    print(f"  heuristic time : {result.score:.1f}s")
    print(f"  best single    : {best_pair} at {best_single:.1f}s")
    print(
        f"  evaluations    : {result.evaluations + len(CANDIDATES)} job-chain "
        f"executions (vs {space} for brute force)"
    )
    print(f"  wall time      : {time.time() - t0:.0f}s")


if __name__ == "__main__":
    main()
