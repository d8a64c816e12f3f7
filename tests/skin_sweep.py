"""Check every skinning backend against its byte oracle on N seeded random rigs.

    PYTHONPATH=src python tests/skin_sweep.py N [SEED]

Rig i is dq_oracle.random_rig(random.Random(f"{SEED}:{i}")): 1-70 bones,
1-200 vertices with 1-4 influences each, hemisphere flips, pivot ties,
zero weights, non-unit scales and overflowing poses.  Each frame of
cga, cga_sum and lbs must have the bytes of tests/blend_oracle.py's
per-group blend, and each dq frame those of tests/dq_oracle.py, or raise
the oracle's error type with its message.  Exits 1 at the first rig that
differs and prints its seed and backend.  Too slow for the tier-1 suite at
CI's 2000 rigs, so pytest does not collect it.
"""

import random
import sys
from collections import Counter

import blend_oracle
import dq_oracle
from mvskin.animate import SKIN_BACKENDS, global_pose_at

ORACLES = {**blend_oracle.SKIN, "dq": dq_oracle.skin_dq}


def main(argv):
    n = int(argv[1])
    seed = int(argv[2]) if len(argv) > 2 else 0
    kinds = {name: Counter() for name in ORACLES}
    for i in range(n):
        model, t = dq_oracle.random_rig(random.Random(f"{seed}:{i}"))
        pose = global_pose_at(model, "c", t)
        for name, oracle in ORACLES.items():
            got = dq_oracle.outcome(SKIN_BACKENDS[name], model, pose)
            want = dq_oracle.outcome(oracle, model, pose)
            if got != want:
                print(f"rig {seed}:{i} ({len(model.bones)} bones, {len(model.mesh.vertices)} vertices): "
                      f"skin_{name} gave {got[0]}, the oracle {want[0]}"
                      + ("" if got[0] == want[0] == "ok" else f": {got[1]!r} / {want[1]!r}"))
                return 1
            kinds[name][got[0]] += 1
    for name, counts in kinds.items():
        print(f"{name}: {n} rigs, every frame matches the oracle ({', '.join(f'{k} {v}' for k, v in sorted(counts.items()))})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
