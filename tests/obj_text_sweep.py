"""Check the OBJ text kernels against "%.17g" on N random doubles and "%d" on N random int64s.

    PYTHONPATH=src python tests/obj_text_sweep.py N [SEED]

Half of the doubles are log-uniform in magnitude over [1e-6, 1e18] with a
random sign, around the vertex kernel's fast set 1e-4 <= |x| < 1e16; the
other half are uniform bit patterns, which are mostly its fallback.  Half
of the face indices have a log-uniform digit count (1 to 19 digits, one
in eight negative), the other half are uniform int64 bit patterns, half
of them negative.  Exits 1 at the first line whose bytes differ from
"v %.17g %.17g %.17g\\n" or "f %d %d %d\\n" and prints its values.  Too
slow for the tier-1 suite at CI's two million values, so pytest does not
collect it.
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


def sample_indices(rng, n):
    half = n // 2
    digits = np.minimum(10.0 ** rng.uniform(0.0, 19.0, half), 2.0**63 - 1024).astype(np.int64)
    digits[rng.random(half) < 0.125] *= -1
    bits = rng.integers(0, 2**64, size=n - half, dtype=np.uint64).view(np.int64)
    values = np.concatenate([digits, bits])
    rng.shuffle(values)
    return values


def first_mismatch(rows, kernel, line):
    """The first row of rows whose kernel text differs from `line % row`, with both texts."""
    for start in range(0, len(rows), _objtext.CHUNK_ROWS):
        chunk = rows[start : start + _objtext.CHUNK_ROWS]
        got = kernel(chunk).decode("ascii").splitlines()
        for row, text in zip(chunk.tolist(), got + [None] * (len(chunk) - len(got))):
            want = line % tuple(row)
            if text != want:
                return row, text, want
    return None


def main(argv):
    n = int(argv[1])
    rng = np.random.default_rng(int(argv[2]) if len(argv) > 2 else 0)
    checks = (
        ("%.17g", _objtext.vertex_lines, "v %.17g %.17g %.17g", sample(rng, n)),
        ("%d", _objtext.face_lines, "f %d %d %d", sample_indices(rng, n)),
    )
    for name, kernel, line, values in checks:
        rows = np.concatenate([values, np.zeros(-n % 3, values.dtype)]).reshape(-1, 3)
        mismatch = first_mismatch(rows, kernel, line)
        if mismatch is not None:
            row, text, want = mismatch
            print(f"mismatch for {row!r}: wrote {text!r}, {name} writes {want!r}")
            return 1
        print(f"{n} values: every line matches {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
