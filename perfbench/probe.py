"""Set-up probe: a fresh interpreter imports freaco, builds problems, exits.

Usage: python3 perfbench/probe.py [INSTANCE]

Without an argument it builds the ten built-in problems; with one it loads
that instance file.  run.py times several of these, each between two bare
``python3 -c "import numpy"`` starts, and reports setup_s from the ratios.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import freaco  # noqa: E402

if len(sys.argv) > 1:
    freaco.load_problem_file(sys.argv[1])
else:
    freaco.builtin_problems()
