"""Mesh measures the tests use to check cuts and tears."""

import numpy as np


def mesh_area(mesh) -> float:
    """Total area of a triangle mesh."""
    if len(mesh.faces) == 0:
        return 0.0
    p = mesh.vertices[mesh.faces]
    cross = np.cross(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0])
    return float(0.5 * np.sum(np.linalg.norm(cross, axis=1)))


def seam_vertices(half, cut_points) -> dict:
    """A cut half's seam vertices: {vertex index -> (edge lo, edge hi, lam)}.

    The seam vertices follow the half's original vertices, in the order
    of CutPoint.ordinal.
    """
    base = len(half.mesh.vertices) - len(cut_points)
    return {base + cp.ordinal: (cp.edge[0], cp.edge[1], cp.lam) for cp in cut_points}
