"""Write the planted-large instance file.

Usage: python3 perfbench/make_instance.py SEED PATH

The 500x1000 system comes from freaco.oracle.random_feasible_instance with
``rng=numpy.random.default_rng(SEED)``, so it is feasible by construction;
the objective couples every coordinate with its neighbour.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from freaco import oracle  # noqa: E402

M, N = 500, 1000
OBJECTIVE = f"sum(k, 1, {N - 1}, (x(k) - 0.5)^2 + x(k)*x(k+1))"


def main(seed: int, path: str):
    inst = oracle.random_feasible_instance(M, N, rng=np.random.default_rng(seed))
    data = {
        "name": f"planted-{M}x{N}-seed{seed}",
        "A": inst.A.tolist(),
        "b": inst.b.tolist(),
        "objective": OBJECTIVE,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh)


if __name__ == "__main__":
    main(int(sys.argv[1]), sys.argv[2])
