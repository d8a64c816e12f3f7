"""Check mvskin.animate.skin_dq against tests/dq_oracle.py on N seeded random rigs.

    PYTHONPATH=src python tests/dq_sweep.py N [SEED]

Rig i is dq_oracle.random_rig(random.Random(f"{SEED}:{i}")): 1-70 bones,
1-200 vertices with 1-4 influences each, hemisphere flips, pivot ties,
zero weights, non-unit scales and overflowing poses.  Each frame must
have the oracle's bytes, or raise the oracle's error type with its
message.  Exits 1 at the first rig that differs and prints its seed.  Too
slow for the tier-1 suite at CI's 2000 rigs, so pytest does not collect it.
"""

import random
import sys
from collections import Counter

import dq_oracle
from mvskin.animate import global_pose_at, skin_dq


def main(argv):
    n = int(argv[1])
    seed = int(argv[2]) if len(argv) > 2 else 0
    kinds = Counter()
    for i in range(n):
        model, t = dq_oracle.random_rig(random.Random(f"{seed}:{i}"))
        pose = global_pose_at(model, "c", t)
        got, want = dq_oracle.outcome(skin_dq, model, pose), dq_oracle.outcome(dq_oracle.skin_dq, model, pose)
        if got != want:
            print(f"rig {seed}:{i} ({len(model.bones)} bones, {len(model.mesh.vertices)} vertices): "
                  f"skin_dq gave {got[0]}, the oracle {want[0]}" + ("" if got[0] == want[0] == "ok" else f": {got[1]!r} / {want[1]!r}"))
            return 1
        kinds[got[0]] += 1
    print(f"{n} rigs: every frame matches the oracle ({', '.join(f'{k} {v}' for k, v in sorted(kinds.items()))})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
