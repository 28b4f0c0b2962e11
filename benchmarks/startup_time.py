"""Start-up time: the wall time of short ``chiplet-npu`` commands.

Runs each command below in a fresh interpreter (``python -m repro.cli``
with ``PYTHONPATH=src``), :data:`RUNS` times, in rounds that run every
command once, so host noise spreads over all of them alike.  Prints the
min and median wall time of each command, process start-up included::

    python3 benchmarks/startup_time.py

No ``--help`` imports model code (a subcommand's loads only its axis
table, :mod:`repro.sweep.axes`), and the default ``sweep`` and
``design`` price one scenario and one candidate, so these times are
mostly what start-up costs a user.  ``python -c pass`` is the
interpreter's own floor.  Exits 1 if a command fails.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: fresh-process runs per command.
RUNS = 7
#: (label, argv) of each timed command.
COMMANDS = (
    ("python -c pass", ["-c", "pass"]),
    ("chiplet-npu --help", ["-m", "repro.cli", "--help"]),
    ("chiplet-npu sweep --help", ["-m", "repro.cli", "sweep", "--help"]),
    ("chiplet-npu design --help", ["-m", "repro.cli", "design", "--help"]),
    ("chiplet-npu report scaling --help",
     ["-m", "repro.cli", "report", "scaling", "--help"]),
    ("chiplet-npu sweep", ["-m", "repro.cli", "sweep"]),
    ("chiplet-npu design", ["-m", "repro.cli", "design"]),
    ("chiplet-npu table1", ["-m", "repro.cli", "table1"]),
)


def timed(argv: list[str]) -> float:
    """Wall time of one fresh interpreter running ``argv``."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    start = time.perf_counter()
    done = subprocess.run([sys.executable, *argv], cwd=ROOT, env=env,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          text=True, timeout=120)
    elapsed = time.perf_counter() - start
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(argv)} exited {done.returncode}:\n"
                           f"{done.stderr}")
    return elapsed


def main() -> int:
    times: dict[str, list[float]] = {label: [] for label, _ in COMMANDS}
    try:
        for _ in range(RUNS):
            for label, argv in COMMANDS:
                times[label].append(timed(argv))
    except RuntimeError as error:
        print(f"FAIL: {error}")
        return 1
    width = max(len(label) for label in times)
    print(f"{RUNS} fresh-process runs per command, Python "
          f"{sys.version.split()[0]}")
    print(f"{'command':{width}}  min_s   median_s")
    for label, runs in times.items():
        print(f"{label:{width}}  {min(runs):.3f}   "
              f"{statistics.median(runs):.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
