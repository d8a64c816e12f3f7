"""Mesh measures the tests use to check cuts and tears."""

import numpy as np


def mesh_area(mesh) -> float:
    """Total area of a triangle mesh."""
    if len(mesh.faces) == 0:
        return 0.0
    p = mesh.vertices[mesh.faces]
    cross = np.cross(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0])
    return float(0.5 * np.sum(np.linalg.norm(cross, axis=1)))
