"""Make the repository's ``src`` importable for the benchmark's own tests.

Run from the repository root: ``python3 -m pytest perfbench/tests``.
"""

import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[2] / "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)
