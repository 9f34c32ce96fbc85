"""Import paths for the benchmark's self-tests: the checkout root (for
``perfbench``), ``src`` (the program) and ``benchmarks`` (its loaders)."""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
for part in ("benchmarks", "src", ""):
    path = os.path.join(ROOT, part).rstrip(os.sep)
    if path not in sys.path:
        sys.path.insert(0, path)
