"""Entry point of the end-to-end benchmark, runnable by path.

    python3 benchmarks/e2e/run.py --workload NAME --seed S \\
        --seconds T --trace 0|1

from the repository root; same options as ``python -m benchmarks.e2e``.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2]))

from benchmarks.e2e.cli import main  # noqa: E402

if __name__ == "__main__":
    raise SystemExit(main())
