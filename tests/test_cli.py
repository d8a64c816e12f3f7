"""Batch driver tests: script validation, artifacts, metrics, determinism."""

import gc
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import mvskin
from mvskin.cli import (
    METRICS_VERSION,
    SCRIPT_VERSION,
    bundled_script_path,
    load_model,
    main,
    run_script,
    validate_script,
)
from mvskin.errors import MvskinError, ScriptError
from mvskin.quaternions import from_axis_angle
from mvskin.rig import Trs, compose_trs, dump_rig, make_arm_model, make_cylinders_model, save_rig


@pytest.fixture(scope="module")
def cylinders():
    return make_cylinders_model()


def write_script(path, actions):
    doc = {"script_version": SCRIPT_VERSION, "actions": actions}
    Path(path).write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def read_metrics(out_dir):
    return json.loads((Path(out_dir) / "metrics.json").read_text(encoding="utf-8"))


def obj_bytes(out_dir):
    return {p.name: p.read_bytes() for p in sorted(Path(out_dir).iterdir()) if p.suffix == ".obj"}


def check_metrics_schema(doc):
    """Schema version 4: fixed top-level fields, per-action records, failing index and files."""
    assert set(doc) == {"metrics_version", "rig", "script", "backend", "actions", "error"}
    assert doc["metrics_version"] == METRICS_VERSION == 4
    assert isinstance(doc["rig"], str)
    assert isinstance(doc["script"], str)
    assert doc["backend"] in ("cga", "cga_sum", "lbs", "dq")
    assert isinstance(doc["actions"], list)
    for rec in doc["actions"]:
        assert isinstance(rec["index"], int)
        assert rec["action"] in ("set_keyframe", "sample", "cut", "tear", "compare", "export")
        assert isinstance(rec["wall_time_s"], float) and rec["wall_time_s"] >= 0.0
    assert [rec["index"] for rec in doc["actions"]] == list(range(len(doc["actions"])))
    if doc["error"] is not None:
        assert set(doc["error"]) == {"type", "message", "action_index", "files"}
        index = doc["error"]["action_index"]
        assert index is None or index == len(doc["actions"])
        assert all(isinstance(name, str) for name in doc["error"]["files"])
        assert index is not None or doc["error"]["files"] == []


# ---------------------------------------------------------------------------
# validation


def test_validate_rejects_wrong_version(cylinders):
    with pytest.raises(ScriptError, match="script_version"):
        validate_script(cylinders, {"script_version": 2, "actions": []})


def test_validate_rejects_unknown_action(cylinders):
    for kind in ("explode", None, ["cut"]):
        doc = {"script_version": 1, "actions": [{"action": kind}]}
        with pytest.raises(ScriptError, match="unknown action"):
            validate_script(cylinders, doc)


def test_validate_rejects_unknown_fields_per_action(cylinders):
    doc = {
        "script_version": 1,
        "actions": [{"action": "export", "name": "m", "plane": {}, "clip": "c"}],
    }
    with pytest.raises(ScriptError, match=r"actions\[0\] has unknown fields \['clip', 'plane'\]"):
        validate_script(cylinders, doc)
    # a field that another action allows is still unknown here
    doc["actions"] = [{"action": "cut", "plane": {"normal": [0, 0, 1], "d": 1.0}, "name": "m"}]
    with pytest.raises(ScriptError, match=r"unknown fields \['name'\]"):
        validate_script(cylinders, doc)


def test_validate_rejects_unknown_bone(cylinders):
    doc = {
        "script_version": 1,
        "actions": [{"action": "set_keyframe", "clip": "c", "bone": 9, "time": 0.0, "trs": {}}],
    }
    with pytest.raises(ScriptError, match="bone 9"):
        validate_script(cylinders, doc)


def test_validate_rejects_zero_normal(cylinders):
    # a length below 1e-12, or one beyond the float range
    for normal in ([0, 0, 0], [1e-200, 0, 0], [1.5e308, 1.5e308, 0]):
        doc = {
            "script_version": 1,
            "actions": [{"action": "cut", "plane": {"normal": normal, "d": 1.0}}],
        }
        with pytest.raises(ScriptError, match="non-zero"):
            validate_script(cylinders, doc)


def test_validate_rejects_bad_rotations(cylinders):
    for trs, field in (
        ({"rotation_axis": [0, 0, 0], "rotation_angle": 0.5}, "trs.rotation_axis"),
        ({"rotation": ["a", 0, 0, 0]}, "trs.rotation"),
        ({"rotation": [0, 0, 0, 0]}, "trs.rotation"),
        ({"rotation": [float("nan"), 0, 0, 0]}, "trs.rotation"),
    ):
        doc = {
            "script_version": 1,
            "actions": [{"action": "set_keyframe", "clip": "c", "bone": 1, "time": 0.0, "trs": trs}],
        }
        with pytest.raises(ScriptError, match=rf"{field} must"):
            validate_script(cylinders, doc)
    # a non-unit quaternion is accepted and normalized
    doc["actions"][0]["trs"] = {"rotation": [2, 0, 0, 0]}
    assert validate_script(cylinders, doc)[0]["trs"].rotation == (1.0, 0.0, 0.0, 0.0)


def test_vectors_whose_squared_norm_overflows_or_underflows_are_rescaled(cylinders):
    def one(action):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return validate_script(cylinders, {"script_version": 1, "actions": [action]})[0]

    cut_action = one({"action": "cut", "plane": {"normal": [0, 0, 1e160], "d": 1e160}})
    assert (cut_action["normal"], cut_action["d"]) == ((0.0, 0.0, 1.0), 1.0)
    key = {"action": "set_keyframe", "clip": "c", "bone": 1, "time": 0.0}
    for rotation in ([1e200, 0, 0, 0], [1e-200, 0, 0, 0]):
        assert one({**key, "trs": {"rotation": rotation}})["trs"].rotation == (1.0, 0.0, 0.0, 0.0)
    want = tuple(float(x) for x in from_axis_angle((0.0, 0.0, 1.0), 0.7))
    for axis in ([0, 0, 1e200], [0, 0, 1e-200]):
        assert one({**key, "trs": {"rotation_axis": axis, "rotation_angle": 0.7}})["trs"].rotation == want


@pytest.mark.parametrize("field", ["translation", "rotation", "rotation_axis", "normal", "tip", "tail"])
def test_validate_rejects_strings_and_booleans_in_vectors(cylinders, field):
    # the same rule as for scalars: an int or a float, never a bool or a string
    good = {"translation": [1, 0, 0], "rotation": [1, 0, 0, 0], "rotation_axis": [0, 0, 1],
            "normal": [0, 0, 1], "tip": [-20.0, 0.0, 10.0], "tail": [-5.0, 0.0, 10.0]}
    for bad_element in ("1", True, False, None, 10**400):
        vec = list(good[field])
        vec[1] = bad_element
        if field == "normal":
            action = {"action": "cut", "plane": {"normal": vec, "d": 10.0}}
        elif field in ("tip", "tail"):
            states = [{"time": 0.0, **{k: good[k] for k in ("tip", "tail")}},
                      {"time": 1.0, "tip": [-20.0, 0.0, 12.0], "tail": [-5.0, 0.0, 12.0]}]
            states[0][field] = vec
            action = {"action": "tear", "states": states}
        else:
            trs = {field: vec, **({"rotation_angle": 0.5} if field == "rotation_axis" else {})}
            action = {"action": "set_keyframe", "clip": "c", "bone": 1, "time": 0.0, "trs": trs}
        with pytest.raises(ScriptError, match=rf"\.{field} must be"):
            validate_script(cylinders, {"script_version": 1, "actions": [action]})


def test_coincident_scalpel_endpoints_end_in_a_typed_error(tmp_path):
    states = [
        {"time": 0.0, "tip": [-20.0, 0.0, 10.0], "tail": [-20.0, 0.0, 10.0]},
        {"time": 1.0, "tip": [-20.0, 0.0, 12.0], "tail": [-5.0, 0.0, 12.0]},
    ]
    script = write_script(tmp_path / "s.json", [{"action": "tear", "states": states}])
    out = tmp_path / "out"
    assert main(["run", "--rig", "cylinders", "--script", script, "--out", str(out)]) == 1
    metrics = read_metrics(out)
    check_metrics_schema(metrics)
    assert metrics["error"]["type"] == "DegenerateTearStep"
    assert "scalpel endpoints coincide" in metrics["error"]["message"]
    assert metrics["error"]["action_index"] == 0


def test_non_unit_keyframe_quaternion_then_cut(tmp_path):
    """A keyed clip with a non-unit quaternion still passes the cut's model check."""
    script = write_script(
        tmp_path / "s.json",
        [
            {"action": "set_keyframe", "clip": "c", "bone": 1, "time": 0.0,
             "trs": {"rotation": [2, 0, 0, 0]}},
            {"action": "cut", "plane": {"normal": [0, 0, 1], "d": 10.0}},
        ],
    )
    out = tmp_path / "out"
    assert main(["run", "--rig", "cylinders", "--script", script, "--out", str(out)]) == 0
    assert read_metrics(out)["error"] is None


def test_validate_rejects_single_scalpel_state(cylinders):
    doc = {
        "script_version": 1,
        "actions": [
            {"action": "tear", "states": [{"time": 0.0, "tip": [0, 0, 0], "tail": [1, 0, 0]}]}
        ],
    }
    with pytest.raises(ScriptError, match="at least two"):
        validate_script(cylinders, doc)


def test_validate_rejects_undefined_sample_clip(cylinders):
    doc = {"script_version": 1, "actions": [{"action": "sample", "clip": "x", "times": [0.0]}]}
    with pytest.raises(ScriptError, match="never defined"):
        validate_script(cylinders, doc)


def test_validate_accepts_clip_defined_earlier_in_script(cylinders):
    doc = {
        "script_version": 1,
        "actions": [
            {"action": "set_keyframe", "clip": "x", "bone": 1, "time": 0.0, "trs": {}},
            {"action": "sample", "clip": "x", "times": [0.0]},
        ],
    }
    acts = validate_script(cylinders, doc)
    assert [a["action"] for a in acts] == ["set_keyframe", "sample"]


def test_validate_normalizes_plane(cylinders):
    doc = {
        "script_version": 1,
        "actions": [{"action": "cut", "plane": {"normal": [0, 0, 2], "d": 20.0}}],
    }
    act = validate_script(cylinders, doc)[0]
    assert act["normal"] == (0.0, 0.0, 1.0)
    assert act["d"] == 10.0


def test_validate_rejects_export_name_with_nul_or_lone_surrogate(cylinders):
    doc = json.loads('{"script_version": 1, "actions": [{"action": "export", "name": "a\\u0000b"}]}')
    with pytest.raises(ScriptError, match="NUL"):
        validate_script(cylinders, doc)
    doc = json.loads('{"script_version": 1, "actions": [{"action": "export", "name": "a\\ud800"}]}')
    with pytest.raises(ScriptError, match="not valid Unicode"):
        validate_script(cylinders, doc)


def test_validate_rejects_export_name_over_255_bytes(cylinders):
    def doc(name):
        return {"script_version": 1, "actions": [{"action": "export", "name": name}]}

    assert validate_script(cylinders, doc("m" * 251))[0]["name"] == "m" * 251
    with pytest.raises(ScriptError, match="255 bytes"):
        validate_script(cylinders, doc("m" * 252))
    with pytest.raises(ScriptError, match="255 bytes"):
        validate_script(cylinders, doc("\u00e9" * 126))  # 252 bytes in UTF-8


def test_validate_rejects_quat_and_axis_angle_together(cylinders):
    doc = {
        "script_version": 1,
        "actions": [
            {
                "action": "set_keyframe", "clip": "c", "bone": 1, "time": 0.0,
                "trs": {"rotation": [1, 0, 0, 0], "rotation_axis": [0, 0, 1], "rotation_angle": 1.0},
            }
        ],
    }
    with pytest.raises(ScriptError, match="both"):
        validate_script(cylinders, doc)


def test_validation_is_fail_fast(tmp_path):
    """A bad late action prevents any artifact from the good early ones."""
    script = write_script(
        tmp_path / "s.json",
        [
            {"action": "export", "name": "before"},
            {"action": "set_keyframe", "clip": "c", "bone": 42, "time": 0.0, "trs": {}},
        ],
    )
    out = tmp_path / "out"
    rc = main(["run", "--rig", "cylinders", "--script", script, "--out", str(out)])
    assert rc == 1
    assert not (out / "before.obj").exists()
    metrics = read_metrics(out)
    assert metrics["error"]["type"] == "ScriptError"
    assert "bone 42" in metrics["error"]["message"]


# ---------------------------------------------------------------------------
# fixtures and info


def test_load_model_fixture_names_and_path(tmp_path):
    model = load_model("cylinders")
    assert len(model.mesh.vertices) == 634
    with pytest.raises(Exception):
        load_model(str(tmp_path / "missing.json"))


def test_info_prints_fixture_statistics(capsys):
    assert main(["info", "--rig", "cylinders"]) == 0
    assert "634 vertices, 758 faces" in capsys.readouterr().out
    assert main(["info", "--rig", "arm"]) == 0
    assert "3069 vertices, 5037 faces" in capsys.readouterr().out


def test_info_reports_a_bad_rig_without_a_traceback(tmp_path, capsys):
    assert main(["info", "--rig", str(tmp_path / "missing.json")]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    doc = dump_rig(make_cylinders_model())
    doc["rig_version"] = 2
    rig = tmp_path / "v2.json"
    rig.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["info", "--rig", str(rig)]) == 1
    assert capsys.readouterr().err == "error: unsupported rig_version 2 (expected 1)\n"


# ---------------------------------------------------------------------------
# run semantics


def test_empty_script_exports_bind_pose(tmp_path, cylinders):
    script = write_script(tmp_path / "s.json", [])
    out = tmp_path / "out"
    rc = main(["run", "--rig", "cylinders", "--script", script, "--out", str(out)])
    assert rc == 0
    lines = (out / "bind.obj").read_text().splitlines()
    v_lines = [l for l in lines if l.startswith("v ")]
    f_lines = [l for l in lines if l.startswith("f ")]
    assert len(v_lines) == 634 and len(f_lines) == 758
    first = np.array([float(x) for x in v_lines[0].split()[1:]])
    assert np.allclose(first, cylinders.mesh.vertices[0], atol=0.0)
    check_metrics_schema(read_metrics(out))


def test_sample_writes_sequentially_numbered_frames(tmp_path):
    script = write_script(
        tmp_path / "s.json",
        [
            {"action": "set_keyframe", "clip": "c", "bone": 1, "time": 1.0,
             "trs": {"translation": [5, 0, 0]}, "relative_to_bind": True},
            {"action": "sample", "clip": "c", "times": [0.0, 1.0]},
            {"action": "sample", "clip": "c", "times": [0.5]},
        ],
    )
    out = tmp_path / "out"
    assert main(["run", "--rig", "cylinders", "--script", script, "--out", str(out)]) == 0
    names = sorted(p.name for p in out.iterdir() if p.suffix == ".obj")
    assert names == ["frame_0000.obj", "frame_0001.obj", "frame_0002.obj"]
    metrics = read_metrics(out)
    assert metrics["actions"][1]["files"] == ["frame_0000.obj", "frame_0001.obj"]
    assert metrics["actions"][2]["files"] == ["frame_0002.obj"]


def test_relative_keyframe_composes_on_bind(tmp_path, cylinders):
    """relative_to_bind key at identity leaves the sampled mesh at bind pose."""
    script = write_script(
        tmp_path / "s.json",
        [
            {"action": "set_keyframe", "clip": "c", "bone": 1, "time": 0.0,
             "trs": {}, "relative_to_bind": True},
            {"action": "sample", "clip": "c", "times": [0.0]},
        ],
    )
    out = tmp_path / "out"
    assert main(["run", "--rig", "cylinders", "--script", script, "--out", str(out)]) == 0
    verts = [
        [float(x) for x in l.split()[1:]]
        for l in (out / "frame_0000.obj").read_text().splitlines()
        if l.startswith("v ")
    ]
    assert np.allclose(np.array(verts), cylinders.mesh.vertices, atol=1e-9)
    expected = compose_trs(cylinders.bone(1).bind, Trs())
    assert np.allclose(expected.translation, cylinders.bone(1).bind.translation)


def test_cut_action_writes_both_halves_and_counts(tmp_path):
    script = write_script(
        tmp_path / "s.json",
        [{"action": "cut", "plane": {"normal": [0, 0, 1], "d": 10.0}}],
    )
    out = tmp_path / "out"
    assert main(["run", "--rig", "cylinders", "--script", script, "--out", str(out)]) == 0
    metrics = read_metrics(out)
    rec = metrics["actions"][0]
    assert rec["intersection_points"] == 62
    assert rec["polylines"] == [62]
    assert rec["m1"]["vertices"] + rec["m2"]["vertices"] == 634 + 2 * 62
    assert (out / "cut_M1.obj").exists() and (out / "cut_M2.obj").exists()


def test_cut_subcommand_normalizes_normal(tmp_path):
    """A one-action cut script on normal [0, 0, 5], d 50 cuts the plane z = 10."""
    halves = []
    for k, plane in enumerate([{"normal": [0, 0, 5], "d": 50}, {"normal": [0, 0, 1], "d": 10.0}]):
        script = write_script(tmp_path / f"s{k}.json", [{"action": "cut", "plane": plane}])
        out = tmp_path / f"out{k}"
        assert main(["run", "--rig", "cylinders", "--script", script, "--out", str(out)]) == 0
        assert read_metrics(out)["actions"][0]["intersection_points"] == 62
        halves.append([(out / name).read_bytes() for name in ("cut_M1.obj", "cut_M2.obj")])
    assert halves[0] == halves[1]


def test_cut_continues_with_positive_half(tmp_path):
    """After a cut the working model is M1; a follow-up export shows it."""
    script = write_script(
        tmp_path / "s.json",
        [
            {"action": "cut", "plane": {"normal": [0, 0, 1], "d": 10.0}},
            {"action": "export", "name": "after"},
        ],
    )
    out = tmp_path / "out"
    assert main(["run", "--rig", "cylinders", "--script", script, "--out", str(out)]) == 0
    assert (out / "after.obj").read_bytes() == (out / "cut_M1.obj").read_bytes()
    zs = [
        float(l.split()[3])
        for l in (out / "after.obj").read_text().splitlines()
        if l.startswith("v ")
    ]
    assert min(zs) >= 10.0 - 1e-9


def test_compare_action_self_is_exactly_zero(tmp_path):
    script = write_script(
        tmp_path / "s.json",
        [{"action": "compare", "reference": "cga", "test": "cga", "clip": None, "time": 0.0}],
    )
    out = tmp_path / "out"
    assert main(["run", "--rig", "cylinders", "--script", script, "--out", str(out)]) == 0
    rec = read_metrics(out)["actions"][0]
    assert rec["linf_abs"] == 0.0 and rec["linf_rel"] == 0.0
    assert rec["mean_abs"] == 0.0


def test_compare_cga_vs_dq_reported(tmp_path):
    script = write_script(
        tmp_path / "s.json",
        [
            {"action": "set_keyframe", "clip": "c", "bone": 1, "time": 1.0,
             "trs": {"rotation_axis": [0, 1, 1], "rotation_angle": 0.5},
             "relative_to_bind": True},
            {"action": "compare", "reference": "dq", "test": "cga", "clip": "c", "time": 1.0},
        ],
    )
    out = tmp_path / "out"
    assert main(["run", "--rig", "cylinders", "--script", script, "--out", str(out)]) == 0
    rec = read_metrics(out)["actions"][1]
    assert 0.0 < rec["linf_rel"] < 0.02
    assert rec["reference"] == "dq" and rec["test"] == "cga"


@pytest.mark.parametrize("delta", [1e160, 1e300, 1.7e308])
def test_compare_on_a_far_opened_tear_writes_finite_json(tmp_path, delta):
    # the opened tear is wider than ~1.3e154, where squared norms overflow;
    # at 1.7e308 the bounding box's extent itself overflows
    doc = json.loads(bundled_script_path("cylinders_tear.json").read_text(encoding="utf-8"))
    (act,) = doc["actions"]
    act["delta"] = delta
    script = write_script(tmp_path / "s.json", [act, {"action": "compare", "reference": "dq", "test": "lbs"}])
    out = tmp_path / "out"
    assert main(["run", "--rig", "cylinders", "--script", script, "--out", str(out)]) == 0
    text = (out / "metrics.json").read_text(encoding="utf-8")
    assert "NaN" not in text and "Infinity" not in text
    rec = read_metrics(out)["actions"][1]
    for key in ("linf_abs", "linf_rel", "mean_abs", "mean_rel"):
        assert math.isfinite(rec[key]), key
    assert rec["linf_rel"] > 0.0 and rec["linf_rel"] * delta < rec["linf_abs"]


def test_backend_flag_changes_sampled_frame(tmp_path):
    actions = [
        {"action": "set_keyframe", "clip": "c", "bone": 1, "time": 1.0,
         "trs": {"rotation_axis": [0, 1, 1], "rotation_angle": 0.7},
         "relative_to_bind": True},
        {"action": "sample", "clip": "c", "times": [1.0]},
    ]
    script = write_script(tmp_path / "s.json", actions)
    out_cga = tmp_path / "cga"
    out_dq = tmp_path / "dq"
    assert main(["run", "--rig", "cylinders", "--script", script, "--out", str(out_cga)]) == 0
    assert main(["run", "--rig", "cylinders", "--script", script, "--out", str(out_dq), "--backend", "dq"]) == 0
    a = (out_cga / "frame_0000.obj").read_bytes()
    b = (out_dq / "frame_0000.obj").read_bytes()
    assert a != b
    assert read_metrics(out_dq)["backend"] == "dq"


def test_runtime_error_is_serialized_with_nonzero_exit(tmp_path):
    """A validation-clean script that fails at execution lands in metrics."""
    states = [
        {"time": 0.0, "tip": [50.0, 50.0, 10.0], "tail": [60.0, 50.0, 10.0]},
        {"time": 1.0, "tip": [50.0, 50.0, 11.0], "tail": [60.0, 50.0, 11.0]},
    ]
    script = write_script(tmp_path / "s.json", [{"action": "tear", "states": states}])
    out = tmp_path / "out"
    rc = main(["run", "--rig", "cylinders", "--script", script, "--out", str(out)])
    assert rc == 1
    metrics = read_metrics(out)
    assert metrics["error"]["type"] == "NoIntersection"
    check_metrics_schema(metrics)


@pytest.mark.parametrize("backend", ["cga", "cga_sum", "lbs", "dq"])
def test_overflowing_scale_ends_in_typed_error_without_warnings(tmp_path, backend):
    arm = make_arm_model()
    actions = validate_script(arm, {"script_version": SCRIPT_VERSION, "actions": [
        *({"action": "set_keyframe", "clip": "c", "bone": b, "time": 1.0, "trs": {"scale": 1e300}}
          for b in (1, 2)),
        {"action": "sample", "clip": "c", "times": [1.0]},
    ]})
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(MvskinError):
            run_script(arm, actions, tmp_path, backend, False)


def test_failed_run_keeps_finished_action_records(tmp_path):
    states = [
        {"time": 0.0, "tip": [50.0, 50.0, 10.0], "tail": [60.0, 50.0, 10.0]},
        {"time": 1.0, "tip": [50.0, 50.0, 11.0], "tail": [60.0, 50.0, 11.0]},
    ]
    script = write_script(
        tmp_path / "s.json",
        [
            {"action": "export", "name": "a"},
            {"action": "cut", "plane": {"normal": [0, 0, 1], "d": 10.0}},
            {"action": "tear", "states": states},
        ],
    )
    out = tmp_path / "out"
    assert main(["run", "--rig", "cylinders", "--script", script, "--out", str(out)]) == 1
    metrics = read_metrics(out)
    check_metrics_schema(metrics)
    assert [rec["action"] for rec in metrics["actions"]] == ["export", "cut"]
    assert metrics["error"]["type"] == "NoIntersection"
    assert metrics["error"]["action_index"] == 2
    written = [name for rec in metrics["actions"] for name in rec["files"]]
    assert written == ["a.obj", "cut_M1.obj", "cut_M2.obj"]
    assert all((out / name).is_file() for name in written)
    assert metrics["error"]["files"] == []


def test_failing_action_names_the_files_it_wrote(tmp_path):
    # the frame at t=0 is written before the scale of 1e300 at t=1 overflows
    key = {"action": "set_keyframe", "clip": "c", "bone": 1, "relative_to_bind": True}
    script = write_script(
        tmp_path / "s.json",
        [
            {**key, "time": 0.0, "trs": {"scale": 1.0}},
            {**key, "time": 1.0, "trs": {"scale": 1e300}},
            {"action": "sample", "clip": "c", "times": [0.0, 1.0]},
        ],
    )
    out = tmp_path / "out"
    assert main(["run", "--rig", "arm", "--script", script, "--out", str(out), "--backend", "dq"]) == 1
    metrics = read_metrics(out)
    check_metrics_schema(metrics)
    assert metrics["error"]["type"] == "NumericalFailure"
    assert metrics["error"]["action_index"] == 2
    assert metrics["error"]["files"] == ["frame_0000.obj"]
    named = [name for rec in metrics["actions"] for name in rec.get("files", ())]
    named += metrics["error"]["files"]
    assert sorted(p.name for p in out.iterdir() if p.suffix == ".obj") == sorted(named)


def test_run_leaves_no_frozen_objects(tmp_path):
    good = write_script(tmp_path / "good.json", [{"action": "export", "name": "a"}])
    bad = write_script(
        tmp_path / "bad.json", [{"action": "sample", "clip": "nope", "times": [0.0]}]
    )
    assert main(["run", "--rig", "cylinders", "--script", good, "--out", str(tmp_path / "a")]) == 0
    assert gc.get_freeze_count() == 0
    assert main(["run", "--rig", "cylinders", "--script", bad, "--out", str(tmp_path / "b")]) == 1
    assert gc.get_freeze_count() == 0


def test_unreadable_script_reports_error(tmp_path):
    (tmp_path / "latin1.json").write_bytes(b"\xff\xfe[\x00]\x00")
    (tmp_path / "text.json").write_text("not json\n", encoding="utf-8")
    for name in ("nope.json", "latin1.json", "text.json"):
        out = tmp_path / f"out_{name}"
        rc = main(["run", "--rig", "cylinders", "--script", str(tmp_path / name), "--out", str(out)])
        assert rc == 1, name
        metrics = read_metrics(out)
        check_metrics_schema(metrics)
        assert metrics["actions"] == [], name
        assert metrics["error"]["action_index"] is None and metrics["error"]["files"] == [], name


def test_cga_sum_backend_runs_and_compares(tmp_path):
    bend = {"action": "set_keyframe", "clip": "c", "bone": 1, "time": 1.0,
            "trs": {"rotation_axis": [1, 0, 0], "rotation_angle": 1.2, "scale": 1.6},
            "relative_to_bind": True}
    script = write_script(
        tmp_path / "s.json",
        [
            bend,
            {"action": "sample", "clip": "c", "times": [1.0]},
            {"action": "compare", "reference": "cga", "test": "cga_sum", "clip": "c", "time": 1.0},
        ],
    )
    out = tmp_path / "out"
    rc = main(["run", "--rig", "cylinders", "--script", script, "--out", str(out),
               "--backend", "cga_sum"])
    assert rc == 0
    metrics = read_metrics(out)
    check_metrics_schema(metrics)
    assert metrics["backend"] == "cga_sum"
    rec = metrics["actions"][2]
    assert rec["reference"] == "cga" and rec["test"] == "cga_sum"
    assert rec["linf_rel"] > 0.0
    assert (out / "frame_0000.obj").is_file()


def test_python_dash_m_runs_the_cli():
    env = dict(os.environ)
    src = str(Path(mvskin.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "mvskin", "info", "--rig", "cylinders"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "634 vertices" in proc.stdout


# ---------------------------------------------------------------------------
# bundled scripts


def test_bundled_cylinders_tear_produces_17_points(tmp_path):
    out = tmp_path / "out"
    rc = main(["run", "--rig", "cylinders", "--script", "cylinders_tear.json", "--out", str(out)])
    assert rc == 0
    rec = read_metrics(out)["actions"][0]
    assert rec["steps"] == [
        {"intersection_points": 17, "duplicates": 17, "projection_distance": 0.0}
    ]
    assert (out / "torn.obj").exists()


def test_bundled_arm_tear_produces_34_points_and_frames(tmp_path):
    out = tmp_path / "out"
    rc = main(["run", "--rig", "arm", "--script", "arm_tear.json", "--out", str(out)])
    assert rc == 0
    metrics = read_metrics(out)
    rec = metrics["actions"][0]
    assert rec["steps"][0]["intersection_points"] == 34
    assert rec["steps"][0]["duplicates"] == 34
    names = {p.name for p in out.iterdir() if p.suffix == ".obj"}
    assert {"torn.obj", "frame_0000.obj", "frame_0001.obj", "frame_0002.obj"} <= names
    for rec in metrics["actions"]:
        if rec["action"] == "sample":
            frame = (out / rec["files"][0]).read_text()
            vals = [float(x) for l in frame.splitlines() if l.startswith("v ") for x in l.split()[1:]]
            assert all(math.isfinite(v) for v in vals)


def test_bundled_cut_deform_script(tmp_path):
    out = tmp_path / "out"
    rc = main(["run", "--rig", "cylinders", "--script", "cylinders_cut_deform.json", "--out", str(out)])
    assert rc == 0
    names = {p.name for p in out.iterdir() if p.suffix == ".obj"}
    assert names == {"cut_M1.obj", "cut_M2.obj", "frame_0000.obj"}
    rec = read_metrics(out)["actions"][0]
    assert rec["intersection_points"] == 62


def test_bundled_script_path_rejects_unknown():
    with pytest.raises(ScriptError, match="no bundled script"):
        bundled_script_path("made_up.json")


# ---------------------------------------------------------------------------
# determinism


def test_rerun_is_byte_identical(tmp_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    for out in (out1, out2):
        rc = main(["run", "--rig", "cylinders", "--script", "cylinders_cut_deform.json",
                   "--out", str(out)])
        assert rc == 0
    assert obj_bytes(out1) == obj_bytes(out2)
    m1, m2 = read_metrics(out1), read_metrics(out2)

    def drop_times(doc):
        doc = dict(doc)
        doc["actions"] = [
            {k: v for k, v in rec.items() if k != "wall_time_s"} for rec in doc["actions"]
        ]
        return doc

    assert drop_times(m1) == drop_times(m2)


@pytest.mark.parametrize(
    "rig, script",
    [
        ("cylinders", "cylinders_cut_deform.json"),
        ("cylinders", "cylinders_tear.json"),
        ("arm", "arm_tear.json"),
    ],
)
def test_rerun_over_larger_old_artifacts_is_byte_identical(tmp_path, rig, script):
    # criterion 8 over a reused --out: no byte of a longer old artifact may survive
    runs = {}
    for tag in ("fresh", "reused"):
        out = tmp_path / tag
        if tag == "reused":
            out.mkdir()
            for name, data in runs["fresh"].items():
                (out / name).write_bytes(b"junk\n" * (len(data) // 5 + 1000))
        rc = main(["run", "--rig", rig, "--script", script, "--out", str(out)])
        assert rc == 0
        runs[tag] = obj_bytes(out)
    assert runs["fresh"] and runs["reused"] == runs["fresh"]


# ---------------------------------------------------------------------------
# the command set and bench


def test_only_run_bench_and_info_are_commands(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert "{run,bench,info}" in capsys.readouterr().out
    for command in ("animate", "cut", "tear", "compare"):
        with pytest.raises(SystemExit) as exc:
            main([command, "--rig", "cylinders", "--out", "unused"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"invalid choice: '{command}'" in err and "Traceback" not in err


@pytest.mark.parametrize("command", [
    ["run", "--script", "cylinders_tear.json"],
    ["bench"],
])
def test_out_naming_an_existing_file_is_an_error_not_a_traceback(tmp_path, capsys, command):
    out = tmp_path / "taken"
    out.write_text("not a directory\n", encoding="utf-8")
    assert main([command[0], "--rig", "cylinders", "--out", str(out), *command[1:]]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(out) in err
    assert out.read_text(encoding="utf-8") == "not a directory\n"


def test_bench_subcommand_reports_tear_metrics(tmp_path):
    out = tmp_path / "out"
    rc = main(["bench", "--rig", "cylinders", "--out", str(out)])
    assert rc == 0
    metrics = read_metrics(out)
    rec = metrics["actions"][0]
    assert rec["action"] == "tear"
    assert rec["intersection_points"] == 17
    assert rec["wall_time_s"] > 0.0


def test_bench_takes_only_a_bundled_fixture(tmp_path, capsys):
    # a rig file, even one that holds a fixture, has no bundled tear script
    rig = tmp_path / "tube.json"
    save_rig(make_cylinders_model(), rig)
    out = tmp_path / "out"
    assert main(["bench", "--rig", str(rig), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: bench takes a bundled fixture (arm, cylinders)")
    assert not out.exists()
