"""Batch command line driver.

``mvskin run`` executes a JSON script against a rig and writes OBJ
artifacts plus a ``metrics.json`` into the output directory.  The other
subcommands (animate, cut, tear, compare, bench, info) are thin
wrappers that build a one-action script and hand it to the same runner;
``info`` only prints model statistics.

Script schema (version 1)::

    {
      "script_version": 1,
      "actions": [
        {"action": "set_keyframe", "clip": "demo", "bone": 1, "time": 1.0,
         "trs": {"translation": [13, 0, 0],
                 "rotation_axis": [0, 1, 1], "rotation_angle": 0.7,
                 "scale": 0.5},
         "relative_to_bind": true},
        {"action": "sample", "clip": "demo", "times": [1.0]},
        {"action": "cut", "plane": {"normal": [0, 0, 1], "d": 10.0}},
        {"action": "tear", "states": [{"time": 0.0, "tip": [...], "tail": [...]},
                                      ...],
         "delta": 0.2},
        {"action": "compare", "reference": "dq", "test": "cga",
         "clip": "demo", "time": 1.0},
        {"action": "export", "name": "model"}
      ]
    }

TRS rotations take either a unit quaternion ``"rotation": [w, x, y, z]``
or an axis-angle pair; ``relative_to_bind`` composes the key on top of
the bone's bind transform.  ``cut`` normalizes the plane normal
(rescaling d to keep the same plane) and continues with the positive
half M1.  ``tear`` advances to the torn-and-opened model.  Actions are
validated against the model before anything executes.

Artifacts: ``frame_%04d.obj`` (numbered across the whole run),
``cut_M1.obj``/``cut_M2.obj``, ``torn.obj``, ``<name>.obj`` for
exports, and ``metrics.json`` (schema version 4: per-action wall times,
intersection counts, compare error norms; a failure keeps the finished
records, names its ``action_index`` and the ``files`` the failing action
wrote, and exits nonzero).  An empty action list exports the bind-pose
mesh as ``bind.obj``.  Outputs are deterministic: identical script and
rig produce byte-identical OBJ files.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import sys
import time
from importlib import resources
from pathlib import Path

import numpy as np

from .algebra import make_plane
from .animate import SKIN_BACKENDS, compare_backends, generate_keyframe, global_pose_at
from .cut import cut
from .errors import MvskinError, ScriptError
from .quaternions import from_axis_angle, normalize
from .rig import (
    RiggedModel,
    Trs,
    compose_trs,
    export_obj,
    load_rig,
    make_arm_model,
    make_cylinders_model,
)
from .tear import ScalpelState, tear

METRICS_VERSION = 4
SCRIPT_VERSION = 1

_FIXTURES = {"cylinders": make_cylinders_model, "arm": make_arm_model}

# each script action and the fields it may carry besides "action"
_ACTION_FIELDS = {
    "set_keyframe": {"clip", "bone", "time", "trs", "relative_to_bind"},
    "sample": {"clip", "times"},
    "cut": {"plane"},
    "tear": {"states", "delta"},
    "compare": {"reference", "test", "clip", "time"},
    "export": {"name"},
}


def load_model(rig: str) -> RiggedModel:
    """A bundled fixture by name, or a rig document by path."""
    if rig in _FIXTURES:
        return _FIXTURES[rig]()
    return load_rig(rig)


def bundled_script_path(name: str) -> Path:
    """Filesystem path of a script shipped in mvskin/data."""
    candidate = resources.files("mvskin").joinpath("data", name)
    if not candidate.is_file():
        raise ScriptError(f"no bundled script named {name!r}")
    return Path(str(candidate))


def _vec3(value, where: str):
    if not isinstance(value, (list, tuple)) or len(value) != 3:
        raise ScriptError(f"{where} must be a 3-vector")
    return _finite(value, where)


def _finite(value, where: str) -> tuple:
    return tuple(_number(x, where) for x in value)


def _check_nonzero(vector: tuple, where: str) -> None:
    # the norm as the quaternion code computes it, so an underflow counts as zero
    if not 0.0 < float(np.linalg.norm(vector)) < math.inf:
        raise ScriptError(f"{where} must have a finite non-zero length")


def _number(value, where: str) -> float:
    """A JSON number (int or float; not bool or str) as a finite float."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ScriptError(f"{where} must be a number")
    try:
        out = float(value)
    except OverflowError:  # an int beyond float range
        out = math.inf
    if not math.isfinite(out):
        raise ScriptError(f"{where} must be finite")
    return out


def _parse_trs(obj, where: str) -> Trs:
    if not isinstance(obj, dict):
        raise ScriptError(f"{where} must be an object")
    known = {"translation", "rotation", "rotation_axis", "rotation_angle", "scale"}
    unknown = set(obj) - known
    if unknown:
        raise ScriptError(f"{where} has unknown fields {sorted(unknown)}")
    translation = _vec3(obj.get("translation", (0.0, 0.0, 0.0)), f"{where}.translation")
    has_quat = "rotation" in obj
    has_axis = "rotation_axis" in obj or "rotation_angle" in obj
    if has_quat and has_axis:
        raise ScriptError(f"{where} gives both a quaternion and an axis-angle rotation")
    if has_quat:
        quat = obj["rotation"]
        if not isinstance(quat, (list, tuple)) or len(quat) != 4:
            raise ScriptError(f"{where}.rotation must be [w, x, y, z]")
        # normalized here, so the keyed clip passes validate_model
        rotation = _finite(quat, f"{where}.rotation")
        _check_nonzero(rotation, f"{where}.rotation")
        rotation = tuple(float(x) for x in normalize(rotation))
    elif has_axis:
        if "rotation_axis" not in obj or "rotation_angle" not in obj:
            raise ScriptError(f"{where} needs both rotation_axis and rotation_angle")
        axis = _vec3(obj["rotation_axis"], f"{where}.rotation_axis")
        _check_nonzero(axis, f"{where}.rotation_axis")
        angle = _number(obj["rotation_angle"], f"{where}.rotation_angle")
        rotation = tuple(float(x) for x in from_axis_angle(axis, angle))
    else:
        rotation = (1.0, 0.0, 0.0, 0.0)
    scale = _number(obj.get("scale", 1.0), f"{where}.scale")
    if scale <= 0.0:
        raise ScriptError(f"{where}.scale must be positive")
    return Trs(translation, tuple(rotation), scale)


def validate_script(model: RiggedModel, doc) -> list:
    """Normalize a script document against the model; fail fast."""
    if not isinstance(doc, dict):
        raise ScriptError("script must be a JSON object")
    if doc.get("script_version") != SCRIPT_VERSION:
        raise ScriptError("script_version must be 1")
    unknown = set(doc) - {"script_version", "actions"}
    if unknown:
        raise ScriptError(f"script has unknown fields {sorted(unknown)}")
    actions = doc.get("actions")
    if not isinstance(actions, list):
        raise ScriptError("script needs an actions list")

    bone_ids = {b.id for b in model.bones}
    known_clips = set(model.clips)
    normalized = []
    for i, raw in enumerate(actions):
        where = f"actions[{i}]"
        if not isinstance(raw, dict):
            raise ScriptError(f"{where} must be an object")
        kind = raw.get("action")
        if not isinstance(kind, str) or kind not in _ACTION_FIELDS:
            raise ScriptError(f"{where}: unknown action {kind!r}")
        unknown = set(raw) - {"action"} - _ACTION_FIELDS[kind]
        if unknown:
            raise ScriptError(f"{where} has unknown fields {sorted(unknown)}")
        act = {"action": kind}
        if kind == "set_keyframe":
            clip = raw.get("clip")
            if not isinstance(clip, str) or not clip:
                raise ScriptError(f"{where}.clip must be a non-empty string")
            bone = raw.get("bone")
            if not isinstance(bone, int) or isinstance(bone, bool):
                raise ScriptError(f"{where}.bone must be an integer id")
            if bone not in bone_ids:
                raise ScriptError(f"{where}.bone {bone} is not in the rig")
            act["clip"] = clip
            act["bone"] = bone
            act["time"] = _number(raw.get("time", 0.0), f"{where}.time")
            act["trs"] = _parse_trs(raw.get("trs", {}), f"{where}.trs")
            relative = raw.get("relative_to_bind", False)
            if not isinstance(relative, bool):
                raise ScriptError(f"{where}.relative_to_bind must be a boolean")
            act["relative_to_bind"] = relative
            known_clips.add(clip)
        elif kind == "sample":
            clip = raw.get("clip")
            if not isinstance(clip, str):
                raise ScriptError(f"{where}.clip must be a string")
            if clip not in known_clips:
                raise ScriptError(f"{where}.clip {clip!r} is never defined")
            times = raw.get("times")
            if not isinstance(times, list) or not times:
                raise ScriptError(f"{where}.times must be a non-empty list")
            act["clip"] = clip
            act["times"] = [_number(t, f"{where}.times[{k}]") for k, t in enumerate(times)]
        elif kind == "cut":
            plane = raw.get("plane")
            if not isinstance(plane, dict) or set(plane) != {"normal", "d"}:
                raise ScriptError(f"{where}.plane needs exactly normal and d")
            normal = _vec3(plane["normal"], f"{where}.plane.normal")
            norm = math.sqrt(sum(x * x for x in normal))
            if not 1e-12 <= norm < math.inf:  # the squares can overflow
                raise ScriptError(f"{where}.plane.normal must have a finite non-zero length")
            d = _number(plane["d"], f"{where}.plane.d")
            act["normal"] = tuple(x / norm for x in normal)
            act["d"] = d / norm
        elif kind == "tear":
            states = raw.get("states")
            if not isinstance(states, list) or len(states) < 2:
                raise ScriptError(f"{where}.states needs at least two scalpel states")
            parsed = []
            for k, st in enumerate(states):
                if not isinstance(st, dict) or set(st) != {"time", "tip", "tail"}:
                    raise ScriptError(
                        f"{where}.states[{k}] needs exactly time, tip and tail"
                    )
                parsed.append(
                    ScalpelState(
                        _number(st["time"], f"{where}.states[{k}].time"),
                        _vec3(st["tip"], f"{where}.states[{k}].tip"),
                        _vec3(st["tail"], f"{where}.states[{k}].tail"),
                    )
                )
            act["states"] = parsed
            if "delta" in raw:
                delta = _number(raw["delta"], f"{where}.delta")
                if delta < 0.0:
                    raise ScriptError(f"{where}.delta must be non-negative")
                act["delta"] = delta
            else:
                act["delta"] = None
        elif kind == "compare":
            for key in ("reference", "test"):
                backend = raw.get(key, "dq" if key == "reference" else "cga")
                if backend not in SKIN_BACKENDS:
                    raise ScriptError(f"{where}.{key}: unknown backend {backend!r}")
                act[key] = backend
            clip = raw.get("clip")
            if clip is not None and not isinstance(clip, str):
                raise ScriptError(f"{where}.clip must be a string or null")
            if isinstance(clip, str) and clip not in known_clips:
                raise ScriptError(f"{where}.clip {clip!r} is never defined")
            act["clip"] = clip
            act["time"] = _number(raw.get("time", 0.0), f"{where}.time")
        elif kind == "export":
            name = raw.get("name", "model")
            if not isinstance(name, str) or not name or "/" in name or "\\" in name:
                raise ScriptError(f"{where}.name must be a plain file stem")
            if "\x00" in name:
                raise ScriptError(f"{where}.name must not contain a NUL character")
            try:
                size = len(f"{name}.obj".encode())
            except UnicodeEncodeError:  # a lone surrogate, which JSON allows
                raise ScriptError(f"{where}.name is not valid Unicode text") from None
            if size > 255:  # the usual file name limit
                raise ScriptError(f"{where}.name is too long: the .obj name exceeds 255 bytes")
            act["name"] = name
        normalized.append(act)
    return normalized


def _execute(model: RiggedModel, actions: list, out_dir: Path, backend: str, written: list):
    """Execute validated actions, yielding each action's record as it finishes.

    `written` is emptied as each action starts and gets each file's name
    as the file is written, so after a failure it names the files the
    failing action wrote.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    skinner = SKIN_BACKENDS[backend]

    def _export(mesh, path: Path, vertices=None) -> None:
        export_obj(mesh, path, vertices)
        written.append(path.name)

    frame_counter = 0
    cut_counter = 0
    tear_counter = 0

    for i, act in enumerate(actions):
        written.clear()
        record = {"index": i, "action": act["action"]}
        started = time.perf_counter()
        if act["action"] == "set_keyframe":
            trs = act["trs"]
            if act["relative_to_bind"]:
                trs = compose_trs(model.bone(act["bone"]).bind, trs)
            model = generate_keyframe(model, act["clip"], act["bone"], trs, act["time"])
            record.update(clip=act["clip"], bone=act["bone"], time=act["time"])
        elif act["action"] == "sample":
            for t in act["times"]:
                pose = global_pose_at(model, act["clip"], t)
                frame = skinner(model, pose)
                _export(model.mesh, out_dir / f"frame_{frame_counter:04d}.obj", frame.positions)
                frame_counter += 1
            record.update(clip=act["clip"], times=act["times"], files=list(written))
        elif act["action"] == "cut":
            plane = make_plane(act["normal"], act["d"])
            result = cut(model, plane)
            suffix = "" if cut_counter == 0 else f"_{cut_counter + 1}"
            _export(result.m1.mesh, out_dir / f"cut_M1{suffix}.obj")
            _export(result.m2.mesh, out_dir / f"cut_M2{suffix}.obj")
            cut_counter += 1
            model = result.m1
            record.update(
                intersection_points=len(result.cut_points),
                polylines=[len(chain) for chain in result.polylines],
                m1={"vertices": len(result.m1.mesh.vertices), "faces": len(result.m1.mesh.faces)},
                m2={"vertices": len(result.m2.mesh.vertices), "faces": len(result.m2.mesh.faces)},
                files=list(written),
            )
        elif act["action"] == "tear":
            result = tear(model, act["states"], delta=act["delta"])
            suffix = "" if tear_counter == 0 else f"_{tear_counter + 1}"
            _export(result.model.mesh, out_dir / f"torn{suffix}.obj")
            tear_counter += 1
            model = result.model
            record.update(
                steps=[
                    {
                        "intersection_points": len(p.points),
                        "duplicates": len(p.duplicates),
                        "projection_distance": p.projection_distance,
                    }
                    for p in result.paths
                ],
                intersection_points=sum(len(p.points) for p in result.paths),
                files=list(written),
            )
        elif act["action"] == "compare":
            pose = global_pose_at(model, act["clip"], act["time"])
            errors = compare_backends(model, pose, reference=act["reference"], test=act["test"])
            record.update(errors)
        elif act["action"] == "export":
            _export(model.mesh, out_dir / f"{act['name']}.obj")
            record.update(files=list(written))
        record["wall_time_s"] = time.perf_counter() - started
        yield record

    if not actions:
        _export(model.mesh, out_dir / "bind.obj")
        yield {"index": 0, "action": "export", "files": list(written), "wall_time_s": 0.0}


def run_script(model: RiggedModel, actions: list, out_dir: Path, backend: str, accel: bool) -> list:
    """Execute validated actions; returns the per-action metrics list.

    `accel` is accepted and ignored: every tear probes its scalpel hits
    through one FaceBVH, and the benchmark worker (perfbench/worker.py)
    still passes the old flag.
    """
    return list(_execute(model, actions, out_dir, backend, []))


def _write_metrics(out_dir: Path, payload: dict) -> None:
    text = json.dumps(payload, indent=1, sort_keys=False)
    (out_dir / "metrics.json").write_text(text + "\n", encoding="utf-8")


def run(rig: str, script_path, out_dir, backend: str = "cga") -> int:
    """Load, validate, execute, and write metrics; returns the exit status."""
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # no directory, so nowhere to write metrics.json either
        print(f"error: {exc}", file=sys.stderr)
        return 1
    payload = {
        "metrics_version": METRICS_VERSION,
        "rig": str(rig),
        "script": str(script_path),
        "backend": backend,
        "actions": [],
        "error": None,
    }
    actions = None
    written = []  # the files of the action in progress
    try:
        if backend not in SKIN_BACKENDS:
            raise ScriptError(f"unknown skinning backend {backend!r}")
        model = load_model(rig)
        # the loaded model and the imported modules live for the whole run:
        # keep full collections from walking them again inside the actions
        gc.freeze()
        doc = json.loads(Path(script_path).read_text(encoding="utf-8"))
        actions = validate_script(model, doc)
        for record in _execute(model, actions, out, backend, written):
            payload["actions"].append(record)
    except (MvskinError, OSError, ValueError) as exc:
        index = None if actions is None else len(payload["actions"])
        payload["error"] = {
            "type": type(exc).__name__,
            "message": str(exc),
            "action_index": index,
            "files": list(written),
        }
        _write_metrics(out, payload)
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        gc.unfreeze()
    _write_metrics(out, payload)
    return 0


def _one_action_run(args, action: dict) -> int:
    script = {"script_version": SCRIPT_VERSION, "actions": [action]}
    out = Path(args.out)
    path = out / "script.json"
    try:
        out.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(script, indent=1) + "\n", encoding="utf-8")
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return run(args.rig, path, out, backend=args.backend)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--rig", required=True, help="rig path or fixture name (cylinders, arm)")
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument("--backend", choices=sorted(SKIN_BACKENDS), default="cga")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="mvskin", description="Skinned-mesh animation, cutting, and tearing driver.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a JSON script")
    _add_common(p_run)
    p_run.add_argument("--script", required=True, help="script path or bundled script name")

    p_anim = sub.add_parser("animate", help="sample a clip to OBJ frames")
    _add_common(p_anim)
    p_anim.add_argument("--clip", required=True)
    p_anim.add_argument("--times", required=True, help="comma-separated sample times")

    p_cut = sub.add_parser("cut", help="cut the model with a plane")
    _add_common(p_cut)
    p_cut.add_argument("--normal", required=True, help="comma-separated plane normal")
    p_cut.add_argument("--d", type=float, required=True, help="plane offset along the normal")

    p_tear = sub.add_parser("tear", help="tear along a scalpel script")
    _add_common(p_tear)
    p_tear.add_argument("--states", required=True, help="JSON file with a list of scalpel states")
    p_tear.add_argument("--delta", type=float, default=None, help="opening displacement")

    p_cmp = sub.add_parser("compare", help="compare two skinning backends")
    _add_common(p_cmp)
    p_cmp.add_argument("--reference", choices=sorted(SKIN_BACKENDS), default="dq")
    p_cmp.add_argument("--test", choices=sorted(SKIN_BACKENDS), default="cga")
    p_cmp.add_argument("--clip", default=None)
    p_cmp.add_argument("--time", type=float, default=0.0)

    p_bench = sub.add_parser("bench", help="run the bundled tear benchmark for a fixture")
    _add_common(p_bench)

    p_info = sub.add_parser("info", help="print model statistics")
    p_info.add_argument("--rig", required=True)

    args = parser.parse_args(argv)

    if args.command == "info":
        try:
            model = load_model(args.rig)
        except (MvskinError, OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print(
            f"{len(model.mesh.vertices)} vertices, {len(model.mesh.faces)} faces, "
            f"{len(model.bones)} bones"
        )
        return 0
    if args.command == "run":
        script = args.script
        if not Path(script).exists():
            try:
                script = bundled_script_path(script)
            except ScriptError:
                pass  # run() serializes the unreadable-path error into metrics
        return run(args.rig, script, args.out, backend=args.backend)
    if args.command == "animate":
        try:
            times = [float(t) for t in args.times.split(",") if t.strip()]
        except ValueError:
            print("error: --times must be comma-separated numbers", file=sys.stderr)
            return 2
        return _one_action_run(args, {"action": "sample", "clip": args.clip, "times": times})
    if args.command == "cut":
        try:
            normal = [float(x) for x in args.normal.split(",")]
        except ValueError:
            print("error: --normal must be comma-separated numbers", file=sys.stderr)
            return 2
        return _one_action_run(
            args, {"action": "cut", "plane": {"normal": normal, "d": args.d}}
        )
    if args.command == "tear":
        try:
            states = json.loads(Path(args.states).read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:  # ValueError: not UTF-8, or not JSON
            print(f"error: cannot read scalpel states: {exc}", file=sys.stderr)
            return 2
        action = {"action": "tear", "states": states}
        if args.delta is not None:
            action["delta"] = args.delta
        return _one_action_run(args, action)
    if args.command == "compare":
        return _one_action_run(
            args,
            {
                "action": "compare",
                "reference": args.reference,
                "test": args.test,
                "clip": args.clip,
                "time": args.time,
            },
        )
    if args.command == "bench":
        name = "cylinders_tear.json" if args.rig == "cylinders" else "arm_tear.json"
        try:
            script = bundled_script_path(name)
        except ScriptError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        return run(args.rig, script, args.out, backend=args.backend)
    raise AssertionError(f"unhandled command {args.command}")


if __name__ == "__main__":
    sys.exit(main())
