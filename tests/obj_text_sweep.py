"""Check the OBJ vertex text kernel against "%.17g" on N random doubles.

    PYTHONPATH=src python tests/obj_text_sweep.py N [SEED]

Half of the doubles are log-uniform in magnitude over [1e-6, 1e18] with a
random sign, around the kernel's fast set 1e-4 <= |x| < 1e16; the other
half are uniform bit patterns, which are mostly its fallback.  Exits 1 at
the first line whose bytes differ from "v %.17g %.17g %.17g\\n" and prints
its values.  Too slow for the tier-1 suite at CI's two million values, so
pytest does not collect it.
"""

import sys

import numpy as np

from mvskin import _objtext


def sample(rng, n):
    half = n // 2
    log_uniform = 10.0 ** rng.uniform(-6.0, 18.0, half) * rng.choice([-1.0, 1.0], half)
    bits = rng.integers(0, 2**64, size=n - half, dtype=np.uint64).view(np.float64)
    values = np.concatenate([log_uniform, bits])
    rng.shuffle(values)
    return values


def main(argv):
    n = int(argv[1])
    rng = np.random.default_rng(int(argv[2]) if len(argv) > 2 else 0)
    rows = np.concatenate([sample(rng, n), np.zeros(-n % 3)]).reshape(-1, 3)
    for start in range(0, len(rows), _objtext.CHUNK_ROWS):
        chunk = rows[start : start + _objtext.CHUNK_ROWS]
        got = _objtext.vertex_lines(chunk).decode("ascii").splitlines()
        for row, line in zip(chunk.tolist(), got + [None] * (len(chunk) - len(got))):
            want = "v %.17g %.17g %.17g" % tuple(row)
            if line != want:
                print(f"mismatch for {row!r}: wrote {line!r}, %.17g writes {want!r}")
                return 1
    print(f"{n} values: every line matches %.17g")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
