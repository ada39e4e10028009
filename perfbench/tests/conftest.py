"""Make the benchmark's modules and the program's sources importable.

Run from the repository root: python3 -m pytest -q perfbench/tests
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
for path in (HERE.parent, HERE.parents[1] / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
