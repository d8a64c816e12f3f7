"""export_obj of cut halves and torn models: the bytes of "%", the rows it formats, what it keeps alive.

A mesh made by cut, tear or open_tear writes the rows it copies from its
root mesh as slices of the root's cached text, and formats the others.
"""

import gc
import json
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mvskin.rig as rig
import mvskin.tear as tear_module
from mvskin import _objtext
from mvskin.algebra import make_plane
from mvskin.cli import bundled_script_path, validate_script
from mvskin.cut import cut
from mvskin.rig import Mesh, RiggedModel, export_obj, make_arm_model, make_cylinders_model
from mvskin.tear import open_tear, tear

from export_oracle import CHAINS, DELTAS, edited_meshes, oracle_bytes, random_strokes

FIXTURES = {"cylinders": make_cylinders_model(), "arm": make_arm_model()}


def exported(mesh, path) -> bytes:
    export_obj(mesh, path)
    return path.read_bytes()


def bundled_tear(model, name: str):
    doc = json.loads(bundled_script_path(name).read_text())
    (act,) = [a for a in validate_script(model, doc) if a["action"] == "tear"]
    return act["states"], act["delta"]


@settings(max_examples=60, deadline=None)
@given(
    fixture=st.sampled_from(sorted(FIXTURES)),
    chain=st.sampled_from(CHAINS),
    delta=st.sampled_from(DELTAS),
    seed=st.integers(0, 2**32 - 1),
)
def test_edited_meshes_export_the_bytes_of_percent(fixture, chain, delta, seed, tmp_path_factory):
    path = tmp_path_factory.mktemp("export") / "mesh.obj"
    for name, mesh in edited_meshes(FIXTURES[fixture], chain, np.random.default_rng(seed), delta):
        assert exported(mesh, path) == oracle_bytes(mesh), name
        # a frame of the mesh writes its face block, built from the same pieces
        export_obj(mesh, path, mesh.vertices)
        assert path.read_bytes() == oracle_bytes(mesh), name


@pytest.mark.parametrize("fixture", sorted(FIXTURES))
@pytest.mark.parametrize("chain", CHAINS)
@pytest.mark.parametrize("delta", DELTAS)
def test_every_chain_runs_to_its_end_on_its_root_rows(fixture, chain, delta, tmp_path):
    # the first seed whose chain makes every mesh it names: no step fails
    # and no plane misses its model
    steps = chain.split("-")
    for seed in range(40):
        made = edited_meshes(FIXTURES[fixture], chain, np.random.default_rng(seed), delta)
        if len(made) == 2 * steps.count("cut") + steps.count("tear") and all(m._rows for _, m in made):
            break
    else:
        pytest.fail(f"no seed below 40 runs the {chain} chain to its end")
    reused = 0
    for name, mesh in made:
        root, vertex_rows, face_rows = mesh._rows
        assert root is FIXTURES[fixture].mesh, name  # the root, never an intermediate mesh
        assert not vertex_rows.flags.writeable and not face_rows.flags.writeable
        reused += int(np.count_nonzero(vertex_rows >= 0))
        assert exported(mesh, tmp_path / "m.obj") == oracle_bytes(mesh), name
    assert reused


def test_a_wrong_row_map_costs_time_but_never_a_byte(tmp_path):
    model = FIXTURES["cylinders"]
    rng = np.random.default_rng(11)
    closed = tear(model, random_strokes(rng, model), delta=0.0)
    path = closed.paths[0]
    assert path.duplicates
    # the closed torn mesh as a root of its own, then opened: its moved
    # duplicates are rows of that root, displaced
    root = Mesh(closed.model.mesh.vertices, closed.model.mesh.faces)
    opened = open_tear(RiggedModel(root, model.bones, closed.model.weights, model.clips), path, 0.3).mesh
    n, m = len(opened.vertices), len(opened.faces)
    half = cut(model, make_plane((0.0, 0.6, 0.8), 8.0)).m1.mesh
    half_rows = half._rows[1]
    wrong = {
        # every row names its own row of the root, moved duplicates included
        "names moved duplicates": rig._derived_mesh(opened.vertices, opened.faces, root, np.arange(n), np.arange(m)),
        "shifted by one row": rig._derived_mesh(opened.vertices, opened.faces, root, np.arange(n) + 1, np.arange(m) + 1),
        "cut half shifted by one row": rig._derived_mesh(
            half.vertices, half.faces, model.mesh, np.where(half_rows >= 0, half_rows + 1, -1)
        ),
    }
    want = {"cut half shifted by one row": oracle_bytes(half)}
    for name, mesh in wrong.items():
        assert exported(mesh, tmp_path / "w.obj") == want.get(name, oracle_bytes(opened)), name


def counted_rows(monkeypatch) -> dict:
    """Rows passed to the vertex and face kernels from now on."""
    counts = {"v": 0, "f": 0}
    kernels = {"v": _objtext.vertex_lines, "f": _objtext.face_lines}

    def counter(kind):
        def call(rows):
            counts[kind] += len(rows)
            return kernels[kind](rows)

        return call

    monkeypatch.setattr(_objtext, "vertex_lines", counter("v"))
    monkeypatch.setattr(_objtext, "face_lines", counter("f"))
    return counts


def test_cut_halves_format_only_their_seam_rows_and_faces(monkeypatch, tmp_path):
    arm = make_arm_model()
    res = cut(arm, make_plane((0.0, 0.6, 0.8), 18.0))
    counts = counted_rows(monkeypatch)
    halves = (res.m1.mesh, res.m2.mesh)
    faces = sum(len(h.faces) for h in halves)
    for h in halves:
        assert exported(h, tmp_path / "h.obj") == oracle_bytes(h)
    # the root's vertex table once; renumbered faces share no row, so the
    # root's face table is never built
    assert counts == {"v": len(arm.mesh.vertices) + 2 * len(res.cut_points), "f": faces}
    for h in halves:
        export_obj(h, tmp_path / "h.obj")
    assert counts == {"v": len(arm.mesh.vertices) + 4 * len(res.cut_points), "f": 2 * faces}


def test_torn_models_format_only_inserted_rows_twins_and_split_children(monkeypatch, tmp_path):
    arm = make_arm_model()
    states, delta = bundled_tear(arm, "arm_tear.json")
    torn = tear(arm, states, delta=delta).model.mesh
    n, m = len(arm.mesh.vertices), len(arm.mesh.faces)
    split = {tuple(f) for f in arm.mesh.faces.tolist()} - {tuple(f) for f in torn.faces.tolist()}
    children = len(torn.faces) - (m - len(split))
    assert len(torn.vertices) > n and children > 0
    counts = counted_rows(monkeypatch)
    assert exported(torn, tmp_path / "t.obj") == oracle_bytes(torn)
    assert counts == {"v": n + len(torn.vertices) - n, "f": m + children}
    export_obj(torn, tmp_path / "t.obj")
    assert counts == {"v": n + 2 * (len(torn.vertices) - n), "f": m + 2 * children}


def test_a_chain_keeps_no_intermediate_mesh_alive(monkeypatch, tmp_path):
    arm = make_arm_model()
    closed = []
    apply = tear_module._apply_paths

    def recorded(model, paths):
        torn = apply(model, paths)
        closed.append(weakref.ref(torn.mesh))
        return torn

    monkeypatch.setattr(tear_module, "_apply_paths", recorded)
    states, _ = bundled_tear(arm, "arm_tear.json")
    half = cut(arm, make_plane((0.0, 0.0, 1.0), 10.0)).m1
    torn = tear(half, states, delta=0.2).model
    intermediates = [weakref.ref(half.mesh), *closed]
    del half
    gc.collect()
    assert [ref() for ref in intermediates] == [None, None]
    assert torn.mesh._rows[0] is arm.mesh
    assert exported(torn.mesh, tmp_path / "t.obj") == oracle_bytes(torn.mesh)
