"""cga, cga_sum and lbs skinning as they were before the slot passes: the byte oracle of `mvskin.animate`.

`blend` here adds each bone group's weighted images into its rows with one
fancy-index add per group, and each skinner hands it an `image(g, rows)`
callback: the grade-1 sandwich images of the lifted rows for `cga` (each
term projected) and `cga_sum`, the matrix images of the rest rows for
`lbs`.  The package's skinners write every group's images into one term
buffer and add them in at most four slot passes; they must return the
same bytes, or raise the same error.  The code is a copy, not an import
of the package's passes, so that a change to those passes shows up
against it.  It reads the package's stacked pose and offset passes,
which `test_pose` checks against the per-bone oracle.
"""

import numpy as np

from mvskin.algebra import down_block, geometric_products, sandwich_blocks
from mvskin.animate import SkinnedFrame
from mvskin.rig import trs_matrices, trs_rows, trs_versors


def blend(model, width: int, image) -> np.ndarray:
    out = np.zeros((len(model.mesh.vertices), width))
    with np.errstate(all="ignore"):
        for g, (_, rows, weights) in enumerate(model.weights.bone_groups):
            out[rows] += weights[:, None] * image(g, rows)
    return out


def group_bones(model, skeleton) -> tuple:
    ids = [bone_id for bone_id, _, _ in model.weights.bone_groups]
    missing = {g: bone_id for g, bone_id in enumerate(ids) if bone_id not in skeleton.rows}
    pose_rows = np.array([skeleton.rows.get(bone_id, 0) for bone_id in ids], dtype=np.int64)
    indices = np.array([model.bone_index.get(bone_id, 0) for bone_id in ids], dtype=np.int64)
    return pose_rows, indices, missing


def deform_versors(model, pose):
    if not model.weights.bone_groups:
        return None
    lifted = model.mesh.lifted_vertices
    pose_rows, indices, missing = group_bones(model, pose.skeleton)
    offsets, rejected = model.skeleton.offset_versors
    deform = geometric_products(pose.global_versors[pose_rows], offsets[indices])
    blocks, singular = sandwich_blocks(deform)

    def image(g, rows):
        if g in missing:
            raise KeyError(missing[g])
        if indices[g] in rejected:
            trs_versors(*trs_rows([model.bones[indices[g]].offset]))
        if g in singular:
            raise singular[g]
        return lifted[rows] @ blocks[g]

    return image


def skin_cga(model, pose) -> SkinnedFrame:
    with np.errstate(all="ignore"):
        sandwich = deform_versors(model, pose)
    out = blend(model, 3, lambda g, rows: down_block(sandwich(g, rows), rows))
    return SkinnedFrame(out, "cga", pose.time)


def skin_cga_sum(model, pose) -> SkinnedFrame:
    with np.errstate(all="ignore"):
        acc = blend(model, 5, deform_versors(model, pose))
        out = down_block(acc)
    return SkinnedFrame(out, "cga_sum", pose.time)


def skin_lbs(model, pose) -> SkinnedFrame:
    if not model.weights.bone_groups:
        return SkinnedFrame(blend(model, 3, None), "lbs", pose.time)
    with np.errstate(all="ignore"):
        offsets, rejected = model.skeleton.offset_matrices
        rows = [pose.skeleton.rows[b.id] for b in model.bones]
        deform = np.matmul(pose.global_matrices[rows], offsets)
    _, indices, missing = group_bones(model, pose.skeleton)

    def image(g, rows):
        if g in missing:
            raise KeyError(missing[g])
        if indices[g] in rejected:
            trs_matrices(*trs_rows([model.bones[indices[g]].offset]))
        m = deform[indices[g]]
        return model.mesh.vertices[rows] @ m[:3, :3].T + m[:3, 3]

    return SkinnedFrame(blend(model, 3, image), "lbs", pose.time)


SKIN = {"cga": skin_cga, "cga_sum": skin_cga_sum, "lbs": skin_lbs}
