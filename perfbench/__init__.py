"""A layered, noise-aware benchmark of the ``repro`` simulator.

The paper's method runs one MapReduce job again and again, once per
scheduler pair, so the host time a simulated run takes is the cost every
user pays.  This package measures that cost end to end and splits it by
layer.  ``BENCHMARK.json`` at the repository root names the workloads and
the metrics; ``python3 perfbench/run.py --list`` prints them.

Modules:

* :mod:`perfbench.stats` -- medians, quartiles and the regression
  verdicts of ``--compare``;
* :mod:`perfbench.workloads` -- the five workloads and their golden
  payload digests;
* :mod:`perfbench.speed` -- the host-speed calibration that end-to-end
  times are scaled by;
* :mod:`perfbench.layers` -- the cProfile self-time rollup by layer, the
  exact per-layer counts and the spans recorded around public entry
  points;
* :mod:`perfbench.child` -- one measurement process: pinned to one CPU,
  it times set-up, samples or a profiled pass and prints one JSON line;
* :mod:`perfbench.harness` -- the parent: rounds of children, the
  summary table, the ``BENCH_<rev>.json`` file and the command line.

Importing this package imports nothing from ``repro``: the parent process
stays small and a checkout without ``src/repro`` fails cleanly.
"""
