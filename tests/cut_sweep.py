"""Check cut against its per-face oracle on N seeded planes.

    PYTHONPATH=src python tests/cut_sweep.py N [SEED]

Plane i cuts cut_oracle.models()[i % 4] (the cylinders, the arm, or a
cut half of either) and is cut_oracle.random_plane of kind
PLANE_KINDS[(i // 4) % 4], drawn from numpy's generator seeded with
[SEED, i]: oblique, through a vertex, through an edge midpoint, or
horizontal through a band of near-tied quad diagonals.  Both halves'
bytes and row maps, the cut points and the polylines must equal the
oracle's, or cut must raise the oracle's error type with its message.
Exits 1 at the first plane that differs.  Too slow for the tier-1 suite
at CI's 2000 planes, so pytest does not collect it.
"""

import sys
from collections import Counter

import numpy as np

import cut_oracle
from mvskin.cut import cut


def main(argv):
    n = int(argv[1])
    seed = int(argv[2]) if len(argv) > 2 else 0
    models = cut_oracle.models()
    kinds, diagonals = Counter(), []
    for i in range(n):
        model = models[i % len(models)]
        kind = cut_oracle.PLANE_KINDS[(i // len(models)) % len(cut_oracle.PLANE_KINDS)]
        plane = cut_oracle.random_plane(np.random.default_rng([seed, i]), model, kind)
        got = cut_oracle.outcome(cut, model, plane)
        want = cut_oracle.outcome(lambda m, p: cut_oracle.cut(m, p, diagonals), model, plane)
        if got != want:
            print(f"plane {seed}:{i} ({kind}, model {i % len(models)}): cut gave {got[0]}, the oracle {want[0]}"
                  + ("" if got[0] == want[0] else f": {got[1]!r} / {want[1]!r}"))
            return 1
        kinds[got[0] if got[0] != "ok" or got[2] else "missed"] += 1
    print(f"{n} planes, every cut matches the oracle ({', '.join(f'{k} {v}' for k, v in sorted(kinds.items()))}); "
          f"quad diagonals: {', '.join(f'{k} {v}' for k, v in sorted(Counter(diagonals).items()))}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
