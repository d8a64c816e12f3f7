"""The OBJ bytes of a mesh by "%" formatting, and seeded cut and tear chains to check them on.

export_obj(mesh, path) must write oracle_bytes(mesh) for every mesh.  The
chains make meshes whose rows come from a root mesh: cut halves, torn
models opened by a given delta, and the chains cut->tear, tear->cut and
cut of a cut half.  Planes and scalpel strokes are drawn from a seeded
numpy generator for a tube along z, as the bundled fixtures are; a step
that raises an MvskinError ends its chain.
"""

import math

import numpy as np

from mvskin.algebra import make_plane
from mvskin.cut import cut
from mvskin.errors import MvskinError
from mvskin.tear import ScalpelState, tear

CHAINS = ("cut", "tear", "cut-tear", "tear-cut", "cut-cut")
# a tear step's delta: 0 (closed), SEEDED (drawn per step) or 1e20, which
# throws the twins past the vertex kernel's fast set
SEEDED = None
DELTAS = (0.0, SEEDED, 1e20)


def oracle_bytes(mesh) -> bytes:
    """One "v %.17g %.17g %.17g" line per vertex and one 1-based "f %d %d %d" line per face."""
    v = "".join("v %.17g %.17g %.17g\n" % tuple(row) for row in mesh.vertices.tolist())
    f = "".join("f %d %d %d\n" % tuple(row) for row in (mesh.faces + 1).tolist())
    return (v + f).encode("ascii")


def _tube(model):
    """Radius and length of a tube along z from z = 0."""
    v = model.mesh.vertices
    return float(np.hypot(v[:, 0], v[:, 1]).max()), float(v[:, 2].max())


def random_plane(rng, model):
    """A plane tilted up to 35 degrees from the tube's cross-section, through its middle 60%."""
    _, length = _tube(model)
    tilt, azimuth = rng.uniform(0.0, math.radians(35.0)), rng.uniform(0.0, 2.0 * math.pi)
    normal = (math.sin(tilt) * math.cos(azimuth), math.sin(tilt) * math.sin(azimuth), math.cos(tilt))
    return make_plane(normal, normal[2] * rng.uniform(0.2, 0.8) * length)


def random_strokes(rng, model) -> list:
    """2 or 3 radial scalpel states through the tube wall at nearby angles and heights."""
    radius, length = _tube(model)
    angle, z = rng.uniform(0.0, 2.0 * math.pi), rng.uniform(0.25, 0.75) * length
    step = rng.choice([-1.0, 1.0]) * rng.uniform(math.radians(20.0), math.radians(70.0))
    states = []
    for i in range(int(rng.integers(2, 4))):
        c, s = math.cos(angle), math.sin(angle)
        inner, outer = (0.25 * radius * c, 0.25 * radius * s, z), (1.5 * radius * c, 1.5 * radius * s, z)
        states.append(ScalpelState(float(i), inner, outer))
        angle += step
        z += rng.uniform(-0.04, 0.04) * length
    return states


def edited_meshes(model, chain: str, rng, delta=SEEDED) -> list:
    """(name, mesh) of every mesh a chain of edits makes from model, in order.

    chain is one of CHAINS; a cut step keeps both halves and continues
    with the first, a tear step opens its model by delta (SEEDED draws
    one from rng per step).
    """
    made = []
    radius, _ = _tube(model)
    try:
        for k, step in enumerate(chain.split("-")):
            if step == "cut":
                halves = cut(model, random_plane(rng, model))
                made += [(f"{k}:cut_m1", halves.m1.mesh), (f"{k}:cut_m2", halves.m2.mesh)]
                model = halves.m1
            else:
                d = rng.uniform(0.01, 0.2) * radius if delta is SEEDED else delta
                model = tear(model, random_strokes(rng, model), delta=d).model
                made.append((f"{k}:torn", model.mesh))
    except MvskinError:
        pass
    return made
