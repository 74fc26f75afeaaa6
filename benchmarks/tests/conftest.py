"""Make the benchmark modules and the checkout's archuncert importable.

Run from the root of the checkout: python -m pytest benchmarks/tests
"""

import pathlib
import sys

HERE = pathlib.Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent), str(HERE.parents[1] / "src")]
