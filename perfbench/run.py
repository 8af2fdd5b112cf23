"""Run the repro benchmark.  From the repository root:

    python3 perfbench/run.py                      # every workload, BENCH file
    python3 perfbench/run.py --quick              # 1 round, 1 sample each
    python3 perfbench/run.py --workload sort_hdd --seed 3 --seconds 10 --trace 0
    python3 perfbench/run.py --compare BASE.json [NEW.json]
    python3 perfbench/run.py --list

See :mod:`perfbench.harness` for what is measured and how.
"""

import os
import signal
import sys

# Make the ``perfbench`` package importable when run as a script.
sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from perfbench.harness import main  # noqa: E402

if __name__ == "__main__":
    # SIGTERM unwinds like an exception, so subprocess.run kills and
    # reaps the running child before this process exits.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    sys.exit(main())
