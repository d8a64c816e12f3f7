"""cga, cga_sum and lbs skinning as they were before the slot passes: the byte oracle of `mvskin.animate`.

`blend` here adds each bone group's weighted images into its rows with one
fancy-index add per group, and each skinner hands it an `image(g, rows)`
callback: the grade-1 sandwich images of the lifted rows for `cga` (each
term projected) and `cga_sum`, the matrix images of the rest rows for
`lbs`.  Each skinner checks before its first image, in the package's
order: a pose error, the first offset in bones order that cannot be
built, the first group whose bone id names no bone, then (`cga`,
`cga_sum`) the first group whose deform versor is singular.  `blend`
then takes every group's images before it projects any, so a weight row
past the mesh raises its IndexError before a point at infinity.  The
package's skinners write every group's images into one term buffer and
add them in at most four slot passes; they must return the same bytes,
or raise the same error.  The code is a copy, not an import
of the package's passes, so that a change to those passes shows up
against it.  It reads the package's stacked pose and offset passes,
which `test_pose` checks against the per-bone oracle.
"""

import numpy as np

from mvskin.algebra import down_block, geometric_products, sandwich_blocks
from mvskin.animate import SkinnedFrame


def blend(model, width: int, image, project=None) -> np.ndarray:
    """Each group's images, then each projected, then one fancy-index add per group."""
    groups = model.weights.bone_groups
    out = np.zeros((len(model.mesh.vertices), width))
    with np.errstate(all="ignore"):
        images = [image(g, rows) for g, (_, rows, _) in enumerate(groups)]
        if project is not None:
            images = [project(x, rows) for x, (_, rows, _) in zip(images, groups)]
        for x, (_, rows, weights) in zip(images, groups):
            out[rows] += weights[:, None] * x
    return out


def group_bones(model, skeleton) -> tuple:
    """(pose rows, bone indices) of the bone groups; the first unknown bone id raises KeyError(id)."""
    ids = [bone_id for bone_id, _, _ in model.weights.bone_groups]
    pose_rows = np.array([skeleton.rows[bone_id] for bone_id in ids], dtype=np.int64)
    indices = np.array([model.bone_index[bone_id] for bone_id in ids], dtype=np.int64)
    return pose_rows, indices


def deform_versors(model, pose):
    """image(g, rows), after the checks: the pose, the offsets, the bone ids, then each group's versor."""
    if not model.weights.bone_groups:
        return None
    lifted = model.mesh.lifted_vertices
    versors, offsets = pose.global_versors, model.skeleton.offset_versors
    pose_rows, indices = group_bones(model, pose.skeleton)
    blocks, singular = sandwich_blocks(geometric_products(versors[pose_rows], offsets[indices]))
    for g in range(len(blocks)):
        if g in singular:
            raise singular[g]
    return lambda g, rows: lifted[rows] @ blocks[g]


def skin_cga(model, pose) -> SkinnedFrame:
    with np.errstate(all="ignore"):
        sandwich = deform_versors(model, pose)
    return SkinnedFrame(blend(model, 3, sandwich, down_block), "cga", pose.time)


def skin_cga_sum(model, pose) -> SkinnedFrame:
    with np.errstate(all="ignore"):
        acc = blend(model, 5, deform_versors(model, pose))
        out = down_block(acc)
    return SkinnedFrame(out, "cga_sum", pose.time)


def skin_lbs(model, pose) -> SkinnedFrame:
    """The pose and offsets (deform matrices of every bone), then the bone ids, then the blend."""
    if not model.weights.bone_groups:
        return SkinnedFrame(blend(model, 3, None), "lbs", pose.time)
    with np.errstate(all="ignore"):
        rows = [pose.skeleton.rows[b.id] for b in model.bones]
        deform = np.matmul(pose.global_matrices[rows], model.skeleton.offset_matrices)
    _, indices = group_bones(model, pose.skeleton)

    def image(g, rows):
        m = deform[indices[g]]
        return model.mesh.vertices[rows] @ m[:3, :3].T + m[:3, 3]

    return SkinnedFrame(blend(model, 3, image), "lbs", pose.time)


SKIN = {"cga": skin_cga, "cga_sum": skin_cga_sum, "lbs": skin_lbs}
