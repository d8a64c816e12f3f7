"""The bytes of OBJ lines, "v %.17g %.17g %.17g\\n" and "f %d %d %d\\n", from numpy passes.

%g with precision 17 writes a float x with 1e-4 <= |x| < 1e16 in fixed
notation, from its 17 significant digits: the integer

    D = round(|x| * 10**(16 - e)),   10**16 <= D < 10**17,

rounded half to even, where e = floor(log10 |x|) after that rounding and
-4 <= e <= 15.  That is the fast set, with 0.0 and -0.0 ("0", "-0").
Every 10**(16 - e) needed there is a double, since 16 - e <= 21 and
5**21 < 2**53, so Dekker's two-product gives D exactly as hi + lo; hi is
an even integer, so rint's ties to even on lo round D half to even.
Every other float (subnormal, tiny, huge, inf, nan) is formatted by
"%.17g" % into its slot of the same chunk.

A chunk's text comes from small tables and one gather: the ASCII words
of D's 4-digit groups, from a 10 000-entry table, go into a _SOURCE-byte
source row per coordinate, and the row of the template table for the
coordinate's (sign, e, last nonzero digit of D) lists the source byte of
each of its _FIELD output bytes; the pad bytes are dropped last.

Face lines take the same ASCII words: an index 0 <= x < 10**19 (every
nonnegative int64) is its 4-digit groups, the first nonzero one from a
second table without its leading zeros, the groups above it pad words.
A negative index is formatted by "%d" % into its slot.
"""

from __future__ import annotations

import numpy as np

__all__ = ["CHUNK_ROWS", "face_lines", "vertex_lines"]

# Rows per call of vertex_lines and face_lines, and so per write of
# export_obj.  On the animate benchmark, 4096 rows (a whole 3069-vertex
# arm frame at once) raised peak RSS by 8% and ran slower, 1024 rows
# raised it by 1.4%.
CHUNK_ROWS = 512

# Source row of one coordinate: byte 0 a pad, 1 "-", 2 ".", 3 " ", 4 "v"
# before the first coordinate of a line, 5 "\n" after its last (pads
# otherwise), 6-7 pads, 8-10 "000", and digit i of D at 11 + i.
_SOURCE = 28
# Output field of one coordinate: the "v" or pad, " ", the 24 text bytes
# (at most 23 in the fast set, 24 for "%.17g"), and the "\n" or pad.
_FIELD = 27
_E_MIN, _E_COUNT = -4, 20


def _tables():
    """The ASCII, last-digit, template and face-word tables, built in small integer types."""
    digits = np.empty((10, 10, 10, 10, 4), np.uint8)  # at [a, b, c, d]: the group abcd
    ascii_digits = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
    digits[..., 0] = ascii_digits[:, None, None, None]
    digits[..., 1] = ascii_digits[:, None, None]
    digits[..., 2] = ascii_digits[:, None]
    digits[..., 3] = ascii_digits
    # the four ASCII digits of each group g, as one uint32 word
    ascii4 = digits.view(np.uint32).ravel()
    # at j * 10000 + g: where in D the last nonzero digit of group j (digits
    # 4j + 1 ... 4j + 4) falls, or 0 if g == 0
    last = np.zeros((10, 10, 10, 10), np.uint8)
    last[1:], last[:, 1:], last[:, :, 1:], last[:, :, :, 1:] = 1, 2, 3, 4
    group_start = 4 * np.arange(4, dtype=np.uint8)[:, None, None, None, None]
    last = np.where(last > 0, group_start + last, 0).ravel()
    L = np.arange(17, dtype=np.int8)[:, None]
    q = np.arange(24, dtype=np.int8)  # text position
    digit = 11 + q  # digit q of D
    # e >= 0: digits 0 ... e, then "." and the digits up to L if L > e
    e = np.arange(16, dtype=np.int8)[:, None, None]
    fixed = np.where(q <= e, digit, np.where(q == e + 1, 2, digit - 1))
    fixed = np.where(q < np.where(L <= e, e + 1, L + 2), fixed, 0)
    # e < 0: "0.", -e - 1 zeros, then digits 0 ... L
    e = np.arange(_E_MIN, 0, dtype=np.int8)[:, None, None]
    small = np.where(q == 1, 2, np.where(q < 1 - e, 8, digit - 1 + e))
    small = np.where(q < L + 2 - e, small, 0)
    templates = np.zeros((2, _E_COUNT, 17, _FIELD), np.uint8)  # at [sign, e - _E_MIN, L]
    templates[..., 0], templates[..., 1], templates[..., -1] = 4, 3, 5
    templates[0, ..., 2:-1] = np.concatenate([small, fixed])
    # a "-", then the text, whose last byte is a pad
    templates[1, ..., 2], templates[1, ..., 3:-1] = 1, templates[0, ..., 2:-2]
    # the words of a face index's groups: at g group g without its leading
    # zeros, its digits at the front and pads after them ("0" for 0), at
    # 10000 + g group g as it is, and at 20000 a pad word
    stripped = np.zeros((10000, 4), np.uint8)
    stripped[0, 0] = ord("0")
    for lo, zeros in ((1, 3), (10, 2), (100, 1), (1000, 0)):  # the groups lo ... 10 * lo - 1
        stripped[lo : 10 * lo, : 4 - zeros] = digits.reshape(10000, 4)[lo : 10 * lo, zeros:]
    face_words = np.concatenate([stripped.view(np.uint32).ravel(), ascii4, np.zeros(1, np.uint32)])
    return ascii4, last, templates.reshape(-1, _FIELD), face_words


_ASCII4, _LAST, _TEMPLATES, _FACE_WORDS = _tables()
_LAST_OFFSETS = (10000 * np.arange(4))[:, None]
_SOURCE_HEADS = np.zeros((CHUNK_ROWS, 3, _SOURCE), np.uint8)
_SOURCE_HEADS[:, :, 1:4] = np.frombuffer(b"-. ", np.uint8)
_SOURCE_HEADS[:, 0, 4], _SOURCE_HEADS[:, 2, 5] = ord("v"), ord("\n")
_SOURCE_HEADS = _SOURCE_HEADS.view(np.uint32).reshape(3 * CHUNK_ROWS, _SOURCE // 4)


def _split(a):
    """Veltkamp's split of doubles a into a 26-bit high part and the rest."""
    c = 134217729.0 * a  # 2**27 + 1
    high = c - (c - a)
    return high, a - high


# 10**k and its split, k = 0 ... 22
_POWERS = np.array([float(10**k) for k in range(23)])
_POWERS = np.stack([_POWERS, *_split(_POWERS)])


def _scaled(a: np.ndarray, k: np.ndarray):
    """(hi, lo) with hi + lo == a * 10**k exactly, hi the rounded product.

    Dekker's two-product: the four products of the 26-bit halves are
    exact doubles.  It needs no fused multiply-add, and holds while no
    product overflows or falls below the normal range.
    """
    p, ph, pl = _POWERS.take(k, axis=1)
    hi = a * p
    ah, al = _split(a)
    return hi, al * pl - (((hi - ah * ph) - al * ph) - ah * pl)


def vertex_lines(rows: np.ndarray) -> bytes:
    """The bytes of one "v %.17g %.17g %.17g\\n" line per row of a float64 (m, 3) array.

    m is at most CHUNK_ROWS.  floor(log10 |x|) is only a first guess at
    e: the two-product of |x| and 10**(16 - e) is checked against 10**16
    and 10**17 exactly, and e steps until D lies between them.  D never
    rounds up to 10**17 in the fast set: that needs |x| within 5e-18
    (relative) below a power of ten, and the largest double below each
    of 1e-3 ... 1e16 is more than 5.5e-17 below it.
    """
    v = rows.ravel()
    n = len(v)
    a = np.abs(v)
    fast = (a >= 1e-4) & (a < 1e16)
    a = np.where(fast, a, 0.0)
    # zeros and the fallback get e = 0 (from log10(0 + 1)) and D = 0
    k = 21 - (np.log10(a + ~fast) + 5.0).astype(np.intp)
    while True:
        hi, lo = _scaled(a, k)
        below = ((hi - 1e16) + lo < 0.0) & fast
        step = below.view(np.int8) - ((hi - 1e17) + lo >= 0.0).view(np.int8)
        if not np.count_nonzero(step):
            break
        k += step
    d = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    groups = np.empty((5, n), np.int64)  # the leading digit, then four 4-digit groups
    for g in groups[:0:-1]:
        q = d // 10000
        np.subtract(d, 10000 * q, out=g)
        d = q
    groups[0] = d
    src = _SOURCE_HEADS[:n].copy()
    src[:, 2:] = _ASCII4.take(groups).T
    last = _LAST.take(groups[1:] + _LAST_OFFSETS).max(axis=0)
    # the template row of (sign, e - _E_MIN, last), e = 16 - k
    code = (17 * _E_COUNT) * np.signbit(v) + last - 17 * k + 17 * (16 - _E_MIN)
    index = _TEMPLATES.take(code, axis=0).astype(np.intp)
    index += (_SOURCE * np.arange(n))[:, None]
    text = src.view(np.uint8).ravel().take(index)
    if np.count_nonzero(fast) < n:
        slow = np.flatnonzero(~fast & (v != 0.0))
        for i, x in zip(slow.tolist(), v[slow].tolist()):
            field = b" %.17g" % x
            text[i, 1:-1] = 0
            text[i, 1 : 1 + len(field)] = np.frombuffer(field, np.uint8)
    text = text.ravel()
    return text[text != 0].tobytes()


# The row of a face line of index width w, as words: "f ", then per index
# w pad words for its digits and a " " before the next, and "\n" last
_F, _SPACE, _NEWLINE = np.frombuffer(b"f \0\0 \0\0\0\n\0\0\0", np.uint32)
_FACE_ROWS = {w: np.array([_F, *[0] * w, _SPACE, *[0] * w, _SPACE, *[0] * w, _NEWLINE], np.uint32) for w in range(1, 6)}


def face_lines(rows: np.ndarray) -> bytes:
    """The bytes of one "f %d %d %d\\n" line per row of an int64 (m, 3) array.

    m is at most CHUNK_ROWS.  Each index gets as many 4-digit groups as
    the largest in the chunk needs; a group with a nonzero group above it
    keeps its leading zeros, the first nonzero group drops them, and the
    groups above it are pads.  A chunk with a negative index gives every
    index five groups, the 20 bytes of "%d" % -2**63, which is how a
    negative index is written into its slot.
    """
    v = rows.ravel()
    n = len(rows)
    negative = v.min(initial=0) < 0
    width = 5 if negative else 1 + (len(str(v.max(initial=0))) - 1) // 4
    # index[j] of group j in _FACE_WORDS, the last group first: d holds
    # groups 0 ... j, so group j keeps its leading zeros where d >= 10000,
    # and where d == 0 it lies above the first nonzero group, a pad, unless
    # it is the last group, the "0" of index 0
    index = np.empty((width, len(v)), np.int64)
    d = np.maximum(v, 0) if negative else v
    for j in range(width - 1, 0, -1):
        q = d // 10000
        np.subtract(d, 10000 * q, out=index[j])
        index[j] += 10000 * (d >= 10000)
        if j < width - 1:
            index[j] += 20000 * (d == 0)
        d = q
    # d is below 10000 here: the width fits the largest index
    index[0] = d + 20000 * (d == 0) if width > 1 else d
    line = np.empty((n, 4 + 3 * width), np.uint32)
    line[:] = _FACE_ROWS[width]
    fields = line[:, :-1].reshape(n, 3, 1 + width)  # a view: the last axis splits
    fields[:, :, 1:] = _FACE_WORDS.take(index.T).reshape(n, 3, width)
    if negative:
        slots = fields.view(np.uint8)[:, :, 4:]
        for i in np.flatnonzero(v < 0).tolist():
            field = b"%d" % v[i]
            slots[i // 3, i % 3] = 0
            slots[i // 3, i % 3, : len(field)] = np.frombuffer(field, np.uint8)
    text = line.view(np.uint8).ravel()
    return text[text != 0].tobytes()
