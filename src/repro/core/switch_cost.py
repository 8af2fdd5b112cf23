"""Switch-cost measurement (paper §IV-B, Fig. 5) and a predictive model.

The paper measures the cost of moving between two scheduler-pair
states by running ``dd`` (600 MB of zeroes) in parallel on every VM of
one host and charging everything the two-state run loses against the
average of the two pure runs:

    Cost_switch = T_withTwoSolutions - (T_solution1 + T_solution2) / 2

with the switch fired halfway through the expected run.  The cost is
state-dependent and *non-commutative*, and even a same-to-same switch
is positive because the sysfs store drains the queue regardless.
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import mean
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..virt.cluster import ClusterConfig
from ..virt.pair import SchedulerPair, all_pairs
from ..workloads.ddwrite import DdParallelWrite

__all__ = [
    "SwitchCostMeter",
    "SwitchCostMatrix",
    "SwitchCostModel",
    "run_dd_once",
]

MB = 1024 * 1024

#: A ``(from_pair, to_pair)`` switch.
Transition = Tuple[SchedulerPair, SchedulerPair]


def run_dd_once(
    cluster_config: ClusterConfig,
    pair: SchedulerPair,
    seed: int,
    nbytes: int,
    switch_to: Optional[SchedulerPair] = None,
    switch_at: Optional[float] = None,
    trace=None,
) -> float:
    """One dd measurement run (optionally switching pairs mid-flight)."""
    # Imported here, not at module level: repro.api sits above core.
    from ..api import assemble_cluster

    env, cluster = assemble_cluster(cluster_config.with_(initial_pair=pair),
                                    seed=seed, trace=trace)
    host = cluster.hosts[0]
    bench = DdParallelWrite(env, host, nbytes=nbytes)
    proc = bench.start()

    if switch_to is not None and switch_at is not None:
        def switcher():
            yield env.timeout(switch_at)
            if proc.is_alive:
                yield cluster.set_pair(switch_to)

        env.process(switcher())

    env.run(until=proc)
    return proc.value


@dataclass
class SwitchCostMatrix:
    """Measured costs, keyed by (from_pair, to_pair)."""

    costs: Dict[Transition, float]
    pure_times: Dict[SchedulerPair, float]

    def cost(self, src: SchedulerPair, dst: SchedulerPair) -> float:
        return self.costs[(src, dst)]

    def asymmetry(self, a: SchedulerPair, b: SchedulerPair) -> float:
        """|cost(a→b) − cost(b→a)|: zero iff commutative."""
        return abs(self.costs[(a, b)] - self.costs[(b, a)])

    @property
    def min_cost(self) -> float:
        return min(self.costs.values())

    @property
    def max_cost(self) -> float:
        return max(self.costs.values())


class SwitchCostMeter:
    """Measure transition costs with the paper's dd methodology.

    Every dd run is a ``dd`` :class:`~repro.runner.spec.RunSpec` handed
    to ``sweep``, whose memo serves repeats; without one the meter uses
    a private serial runner with no disk cache.
    """

    def __init__(
        self,
        cluster_config: Optional[ClusterConfig] = None,
        nbytes: int = 600 * MB,
        seeds: Sequence[int] = (0,),
        sweep=None,
    ):
        self.cluster_config = cluster_config or ClusterConfig(hosts=1)
        if self.cluster_config.hosts != 1:
            # The paper measures within one physical machine.
            self.cluster_config = self.cluster_config.with_(hosts=1)
        self.nbytes = nbytes
        self.seeds = tuple(seeds)
        if sweep is None:
            # Imported here, not at module level: repro.runner's dd kind
            # imports this module.
            from ..runner import SweepRunner

            sweep = SweepRunner(jobs=1, use_cache=False)
        #: The :class:`repro.runner.SweepRunner` every dd run goes through.
        self.sweep = sweep

    # -- runs ------------------------------------------------------------------
    def _spec(self, pair: SchedulerPair, seed: int,
              switch_to: Optional[SchedulerPair] = None,
              switch_at: Optional[float] = None):
        from ..runner.spec import RunSpec

        tag = f"dd {pair.label}" + (
            f"->{switch_to.label}@{switch_at:.2f}" if switch_to else ""
        )
        return RunSpec(
            kind="dd",
            seed=seed,
            config=(self.cluster_config, self.nbytes, pair, switch_to,
                    switch_at),
            label=f"{tag} seed={seed}",
        )

    def _mean_elapsed(self, runs: Sequence[tuple]) -> List[float]:
        """Seed-mean dd seconds of each ``(pair, switch_to, switch_at)``
        run, all submitted to the runner as one batch."""
        specs = [self._spec(pair, seed, switch_to, switch_at)
                 for pair, switch_to, switch_at in runs
                 for seed in self.seeds]
        elapsed = [p["elapsed"] for p in self.sweep.run_specs(specs)]
        n = len(self.seeds)
        return [mean(elapsed[i:i + n]) for i in range(0, len(elapsed), n)]

    def _pure_times(self, pairs: Sequence[SchedulerPair]
                    ) -> Dict[SchedulerPair, float]:
        times = self._mean_elapsed([(pair, None, None) for pair in pairs])
        return dict(zip(pairs, times))

    def _costs(self, transitions: Sequence[Transition],
               pure: Dict[SchedulerPair, float]) -> Dict[Transition, float]:
        # The switch fires halfway through the shorter pure run.
        t_both = self._mean_elapsed([
            (src, dst, min(pure[src], pure[dst]) / 2.0)
            for src, dst in transitions
        ])
        return {
            (src, dst): t - (pure[src] + pure[dst]) / 2.0
            for (src, dst), t in zip(transitions, t_both)
        }

    def pure_time(self, pair: SchedulerPair) -> float:
        """Mean dd elapsed time under a single pair."""
        return self._pure_times([pair])[pair]

    def transition_cost(self, src: SchedulerPair, dst: SchedulerPair) -> float:
        """Cost_switch for ``src → dst`` per the paper's formula."""
        pure = self._pure_times([src, dst])
        return self._costs([(src, dst)], pure)[(src, dst)]

    def matrix(
        self, pairs: Optional[Sequence[SchedulerPair]] = None
    ) -> SwitchCostMatrix:
        """Two batches: the pure grid, then the ``S²`` transition grid
        (each transition's switch time needs its two pure times)."""
        pairs = list(pairs) if pairs is not None else all_pairs()
        pure = self._pure_times(pairs)
        transitions = [(src, dst) for src in pairs for dst in pairs]
        return SwitchCostMatrix(costs=self._costs(transitions, pure),
                                pure_times=pure)


class SwitchCostModel:
    """Linear predictor of switch cost (paper §VII future work).

    Features per transition: indicator of each scheduler at each
    endpoint level, plus a bias.  Fitted by least squares on a measured
    matrix; good enough to rank transitions without measuring all
    ``S²`` of them.
    """

    def __init__(self) -> None:
        self._weights: Optional[np.ndarray] = None
        self._feature_names: List[str] = []

    @staticmethod
    def _features(src: SchedulerPair, dst: SchedulerPair) -> Dict[str, float]:
        feats: Dict[str, float] = {"bias": 1.0}
        feats[f"from_vmm_{src.vmm}"] = 1.0
        feats[f"from_vm_{src.vm}"] = 1.0
        feats[f"to_vmm_{dst.vmm}"] = 1.0
        feats[f"to_vm_{dst.vm}"] = 1.0
        feats["same_vmm"] = 1.0 if src.vmm == dst.vmm else 0.0
        feats["same_vm"] = 1.0 if src.vm == dst.vm else 0.0
        return feats

    def fit(self, matrix: SwitchCostMatrix) -> float:
        """Least-squares fit; returns RMS error over the training data."""
        names: List[str] = sorted(
            {
                name
                for (src, dst) in matrix.costs
                for name in self._features(src, dst)
            }
        )
        self._feature_names = names
        rows = []
        targets = []
        for (src, dst), cost in matrix.costs.items():
            feats = self._features(src, dst)
            rows.append([feats.get(name, 0.0) for name in names])
            targets.append(cost)
        a = np.asarray(rows)
        b = np.asarray(targets)
        self._weights, *_ = np.linalg.lstsq(a, b, rcond=None)
        residual = a @ self._weights - b
        return float(np.sqrt(np.mean(residual**2)))

    def predict(self, src: SchedulerPair, dst: SchedulerPair) -> float:
        if self._weights is None:
            raise RuntimeError("model not fitted")
        feats = self._features(src, dst)
        x = np.asarray([feats.get(name, 0.0) for name in self._feature_names])
        return float(x @ self._weights)
