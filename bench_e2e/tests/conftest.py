"""Puts the benchmark modules and the program sources on the path."""

import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent

for path in (str(BENCH_DIR), str(ROOT / "src")):
    if path not in sys.path:
        sys.path.insert(0, path)
