"""End-to-end benchmark: five workloads across kernel, service and fleet.

Run from the repository root::

    PYTHONPATH=src python -m benchmarks.e2e --workload bulk --seed 0
    python3 benchmarks/e2e/run.py --workload fleet --seed 3 --trace 1

See ``benchmarks/e2e/README.md`` and ``BENCHMARK.json``.
"""
