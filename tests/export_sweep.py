"""Check export_obj against "%" formatting on N seeded cut and tear chains.

    PYTHONPATH=src python tests/export_sweep.py N [SEED]

Chain i runs on the cylinders fixture for even i and on the arm for odd
i: one of export_oracle.CHAINS in turn, each tear step opened by 0, by a
seeded delta or by 1e20 in turn.  Every cut half and torn model the
chain makes is exported, and its file must hold the bytes of
export_oracle.oracle_bytes.  Exits 1 at the first mismatch and prints
the chain, the mesh and the first line that differs.  Too slow for the
tier-1 suite at CI's count, so pytest does not collect it.
"""

import sys
import tempfile
from pathlib import Path

import numpy as np

from export_oracle import CHAINS, DELTAS, edited_meshes, oracle_bytes
from mvskin.rig import export_obj, make_arm_model, make_cylinders_model


def first_difference(got: bytes, want: bytes) -> str:
    for k, (a, b) in enumerate(zip(got.splitlines() + [None], want.splitlines() + [None])):
        if a != b:
            return f"line {k + 1}: wrote {a!r}, % writes {b!r}"
    return "no line differs"


def main(argv):
    n = int(argv[1])
    seed = int(argv[2]) if len(argv) > 2 else 0
    fixtures = (make_cylinders_model(), make_arm_model())
    meshes = rows = 0
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "mesh.obj"
        for i in range(n):
            chain, delta = CHAINS[i % len(CHAINS)], DELTAS[(i // len(CHAINS)) % len(DELTAS)]
            rng = np.random.default_rng([seed, i])
            for name, mesh in edited_meshes(fixtures[i % 2], chain, rng, delta):
                export_obj(mesh, path)
                got, want = path.read_bytes(), oracle_bytes(mesh)
                if got != want:
                    print(f"chain {i} ({chain}, delta {delta}), mesh {name}: {first_difference(got, want)}")
                    return 1
                meshes += 1
                rows += len(mesh.vertices) + len(mesh.faces)
    print(f"{n} chains: {meshes} meshes, {rows} rows, every export matches %")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
