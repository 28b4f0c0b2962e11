"""Host-time benchmark of the ``sweep`` and ``design`` entry points.

Run it with ``python3 perfbench/run.py --workload NAME``; see
``perfbench/METRICS.md`` for the workloads and every metric it reports.
"""
