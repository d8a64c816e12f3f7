"""One benchmark workload process: set up, run ops in a closed loop, check outputs.

Started by ``run.py`` with BLAS pinned to one thread and ``src`` on the
path.  It prints ``ready`` once the model is ready (the launcher times
set-up from process launch to that line), then ``cal <seconds>``, the
calibration kernel's time right after set-up, and, unless
``--setup-only``, one ``result {json}`` line at the end.

Each op is one script: ``mvskin.cli.validate_script`` then
``mvskin.cli.run_script`` on the workload's prepared model, writing OBJ
files into a scratch directory.  Ops come from ``gen.op_cycle`` and
repeat cyclically, so every repeat of an op must write the same bytes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_ROOT = ROOT / ".perfbench_out"
DEFAULT_SEED = 0
REFERENCE = HERE / "reference.json"
LAYERS = ("algebra", "quaternions", "weights", "rig", "animate", "cut", "tear", "cli")


# ---------------------------------------------------------------- set-up


def apply_clip(cli, model, actions: list):
    """Insert the clip's keys through the script path, as ``mvskin run`` does."""
    from mvskin.animate import generate_keyframe
    from mvskin.rig import compose_trs

    for act in cli.validate_script(model, {"script_version": 1, "actions": actions}):
        trs = act["trs"]
        if act["relative_to_bind"]:
            trs = compose_trs(model.bone(act["bone"]).bind, trs)
        model = generate_keyframe(model, act["clip"], act["bone"], trs, act["time"])
    return model


def prepare_model(cli, gen, workload: str, seed: int, scratch: Path):
    from mvskin.rig import save_rig

    if workload == "many-bones":
        path = scratch / "many-bones.json"
        save_rig(gen.many_bones_model(seed), path)
        model = cli.load_model(str(path))
    else:
        model = cli.load_model("arm")
    return apply_clip(cli, model, gen.clip_actions(workload, seed))


# ---------------------------------------------------------------- ops and checks


def execute(cli, model, doc: dict, out: Path, backend: str, accel: bool) -> list:
    actions = cli.validate_script(model, doc)
    return cli.run_script(model, actions, out, backend, accel)


def signature(out: Path, records: list) -> str:
    """Digest of an op's OBJ bytes and of the counts that must repeat exactly."""
    h = hashlib.sha256()
    for rec in records:
        counts = {"action": rec["action"]}
        if rec["action"] in ("cut", "tear"):
            counts["intersection_points"] = rec["intersection_points"]
        if rec["action"] == "tear":
            counts["duplicates"] = sum(step["duplicates"] for step in rec["steps"])
        h.update(json.dumps(counts, sort_keys=True).encode())
        for name in rec.get("files", ()):
            h.update(name.encode() + b"\0")
            h.update((out / name).read_bytes())
    return h.hexdigest()


class OutputCheck:
    """Every run of cycle slot j must give the first run's signature (and the reference's).

    Slots that run the same script on the same backend must also give the
    same signature: ``tear`` (face BVH) and ``tear_scan`` (no BVH) cut the
    same strokes, so the BVH must not change a byte.
    """

    def __init__(self, reference, ops=()):
        self.reference = reference  # list of signatures for the default seed, or None
        self.first: dict = {}
        self.problems: list = []
        scripts: dict = {}
        self.twin = {
            j: scripts.setdefault(json.dumps([op["backend"], op["actions"]], sort_keys=True), j)
            for j, op in enumerate(ops)
        }

    def record(self, slot: int, sig: str, what: str) -> bool:
        ok = True
        if self.reference is not None and slot < len(self.reference) and self.reference[slot] != sig:
            self.problems.append(f"{what}: output differs from the recorded reference")
            ok = False
        first = self.first.setdefault(slot, sig)
        if first != sig:
            self.problems.append(f"{what}: output differs from the first run of the same op")
            ok = False
        twin = self.twin.get(slot, slot)
        if twin != slot and self.first.get(twin, sig) != sig:
            self.problems.append(f"{what}: output differs from op {twin}, which ran the same script")
            ok = False
        return ok

    def cycle(self, length: int):
        if all(j in self.first for j in range(length)):
            return [self.first[j] for j in range(length)]
        return None


def verdict(check: OutputCheck, session: Session, cycle_length: int) -> list:
    """Why the run is not correct; empty when it is.

    Any op that raised, warm-up and final reruns included, fails the run,
    as does any output mismatch.  With a reference, a slot of the cycle that
    never produced a signature is a mismatch too.
    """
    problems = session.failures + check.problems
    if check.reference is not None and check.cycle(cycle_length) is None:
        problems.append("not every op of the cycle was compared with the recorded reference")
    return problems


class Session:
    def __init__(self, cli, errors, model, ops: list, out: Path, check: OutputCheck):
        self.calibrate = Calibration()
        self.cli = cli
        self.errors = errors
        self.model = model
        self.ops = ops
        self.out = out
        self.check = check
        self.failures: list = []

    def run_op(self, j: int, call):
        """Run cycle slot j; returns (kind, seconds or None if the op failed)."""
        op = self.ops[j]
        doc = {"script_version": 1, "actions": op["actions"]}
        t0 = time.perf_counter()
        try:
            records = call(self.cli, self.model, doc, self.out, op["backend"], op["accel"])
        except self.errors.MvskinError as exc:
            self.failures.append(f"op {j} ({op['kind']}) raised {type(exc).__name__}: {exc}")
            return op["kind"], None
        dt = time.perf_counter() - t0
        if not self.check.record(j, signature(self.out, records), f"op {j} ({op['kind']})"):
            return op["kind"], None
        return op["kind"], dt

    def measure(self, seconds: float, call=execute, on_op=None) -> dict:
        """Closed loop from cycle slot 0: the next op starts when the last returns.

        The calibration kernel runs between ops, outside their timing. Each
        op's time is also reported relative to the mean of the calibration
        times just before and just after it.
        """
        latencies: dict = {}
        relative: dict = {}
        per_slot: dict = {}
        attempted = failed = 0
        calibrating = 0.0
        start = time.perf_counter()
        deadline = start + seconds
        cal_before = self.calibrate()
        while time.perf_counter() < deadline:
            j = attempted % len(self.ops)
            if on_op is not None:
                on_op(attempted)
            kind, dt = self.run_op(j, call)
            t_cal = time.perf_counter()
            cal_after = self.calibrate()
            calibrating += time.perf_counter() - t_cal
            attempted += 1
            if dt is None:
                failed += 1
            else:
                latencies.setdefault(kind, []).append(dt * 1e3)
                rel = 2.0 * dt / (cal_before + cal_after)
                relative.setdefault(kind, []).append(rel)
                per_slot.setdefault(j, []).append(rel)
            cal_before = cal_after
        elapsed = time.perf_counter() - start
        return {
            "attempted": attempted,
            "failed": failed,
            "elapsed_s": elapsed,
            "busy_s": elapsed - calibrating,
            "latencies_ms": latencies,
            "latencies_cal": relative,
            "slot_cal": per_slot,
        }


class Calibration:
    """A fixed reference kernel whose run time tracks the host's current speed.

    On a shared host the same op can run 1.5 to 2 times slower for seconds
    or minutes at a time.  The kernel mixes what mvskin's ops spend their
    time on: dict-heavy Python loops, "%.17g" float formatting, numpy calls
    on 3-vectors and one small matrix product.  One run takes about 1.5 ms.
    """

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self.np = np
        self.floats = [float(x) for x in rng.random(100)]
        self.vectors = [(rng.random(3), rng.random(3)) for _ in range(50)]
        self.points = rng.random((3000, 32))
        self.matrix = rng.random((32, 32))

    def __call__(self) -> float:
        """The median of three runs, so that one interrupted run does not count."""
        return statistics.median(self._once() for _ in range(3))

    def _once(self) -> float:
        t0 = time.perf_counter()
        table: dict = {}
        for i in range(1000):
            key = (i * 7919) % 1009
            table[key] = table.get(key, 0) + i
        "".join("v %.17g %.17g %.17g\n" % (x, 0.5 * x, 0.25 * x) for x in self.floats)
        for a, b in self.vectors:
            self.np.cross(a, b)
        self.points @ self.matrix
        return time.perf_counter() - t0


# ---------------------------------------------------------------- environment


def blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, if it can be found."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and "/" in line}
    except OSError:
        return None
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor, version = blas.get("name"), blas.get("version")
    except (KeyError, TypeError, ValueError):
        vendor = version = None
    return {
        "blas_vendor": vendor,
        "blas_version": version,
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


# ---------------------------------------------------------------- traced run


def _skin_influences():
    cache: dict = {}

    def count(rec, i, args, kwargs, result):
        weights = args[0].weights
        hit = cache.get(id(weights))
        if hit is None or hit[0] is not weights:
            hit = (weights, sum(len(entry) for entry in weights))
            cache[id(weights)] = hit
        rec.add_count(i, "influences", hit[1])

    return count


def _count_export(rec, i, args, kwargs, result):
    rec.add_count(i, "bytes", os.path.getsize(args[1]))


def _count_cut(rec, i, args, kwargs, result):
    rec.add_count(i, "cut_points", len(result.cut_points))


def _count_tear(rec, i, args, kwargs, result):
    rec.add_count(i, "intermediate_points", sum(len(p.points) for p in result.paths))
    rec.add_count(i, "duplicates", sum(len(p.duplicates or ()) for p in result.paths))


def _count_hit(rec, i, args, kwargs, result):
    rec.add_count(i, "hits", 1)
    bvh = args[2] if len(args) > 2 else kwargs.get("bvh")
    if bvh is None:
        rec.add_count(i, "faces_tested", len(args[0].faces))


def _count_candidates(rec, i, args, kwargs, result):
    rec.add_count(rec.parent[i], "faces_tested", len(result))


def trace_targets():
    from mvskin import algebra, animate, cli, cut, quaternions, rig, tear, weights

    modules = dict(zip(LAYERS, (algebra, quaternions, weights, rig, animate, cut, tear, cli)))
    methods = (
        ("tear", tear.FaceBVH, "__init__", "build"),
        ("tear", tear.FaceBVH, "segment_candidates", "segment_candidates"),
    )
    skin = _skin_influences()
    counts = {
        "rig.export_obj": _count_export,
        "animate.skin_cga": skin,
        "animate.skin_lbs": skin,
        "animate.skin_dq": skin,
        "cut.cut": _count_cut,
        "tear.tear": _count_tear,
        "tear.scalpel_hit": _count_hit,
        "tear.FaceBVH.segment_candidates": _count_candidates,
    }
    return modules, methods, counts


def tracing_overhead_pct(untraced: dict, traced: dict) -> float:
    """Extra time per op under tracing, in cal, over the ops both phases ran.

    Comparing the same cycle slots keeps the op mix equal, so this is
    the drop in ops_per_s that tracing causes; cal units keep a change in
    host speed between the two phases out of it.
    """
    common = [j for j in traced if j in untraced]
    base = sum(statistics.fmean(untraced[j]) for j in common)
    if not base:
        return 0.0
    return 100.0 * (sum(statistics.fmean(traced[j]) for j in common) / base - 1.0)


def layer_metrics(rec, import_s: float, untraced: dict, traced: dict) -> dict:
    """The per-layer metrics named in BENCHMARK.json: name -> (value, unit).

    Times per call average over the calls made; ``calls`` and the layer
    self times are per op.  A layer that a workload never reaches reads 0.
    """
    ops = rec.table([i for i, op in enumerate(rec.op) if op is not None])
    setup = rec.table([i for i, op in enumerate(rec.op) if op is None])
    n_ops = max(1, ops.get("op", {}).get("calls", 0))
    empty = {"calls": 0, "total_ns": 0, "self_ns": 0, "counts": {}}

    def row(name, table=ops):
        return table.get(name, empty)

    def ratio(num, den):
        return num / den if den else 0.0

    def ms(name, table=ops):
        r = row(name, table)
        return ratio(r["total_ns"], r["calls"]) / 1e6, "ms/call"

    def self_ms(name):
        r = row(name)
        return ratio(r["self_ns"], r["calls"]) / 1e6, "ms/call"

    def calls(name):
        return row(name)["calls"] / n_ops, "calls/op"

    def count(name, key):
        r = row(name)
        return ratio(r["counts"].get(key, 0), r["calls"]), "count/call"

    def layer_self(layer):
        return sum(r["self_ns"] for n, r in ops.items() if n.startswith(layer + ".")) / n_ops / 1e6, "ms/op"

    m = {}
    export = row("rig.export_obj")
    m["rig.export_obj.ms"] = ms("rig.export_obj")
    m["rig.export_obj.calls"] = calls("rig.export_obj")
    m["rig.export_obj.mb_per_s"] = ratio(export["counts"].get("bytes", 0) * 1e3, export["total_ns"]), "MB/s"
    for name in ("rig.validate_model", "rig.edge_face_incidence"):
        m[f"{name}.ms"] = ms(name)
        m[f"{name}.calls"] = calls(name)
    m["rig.load_rig.ms"] = ms("rig.load_rig", setup)
    m["rig.make_arm_model.ms"] = ms("rig.make_arm_model", setup)
    for backend in ("cga", "lbs", "dq"):
        name = f"animate.skin_{backend}"
        r = row(name)
        m[f"{name}.ms"] = ms(name)
        m[f"{name}.ns_per_influence"] = ratio(r["total_ns"], r["counts"].get("influences", 0)), "ns"
    m["animate.global_pose_at.ms"] = ms("animate.global_pose_at")
    m["animate.global_pose_at.calls"] = calls("animate.global_pose_at")
    for name in ("algebra.geometric_product", "algebra.sandwich_matrix"):
        r = row(name)
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.us_per_call"] = ratio(r["total_ns"], r["calls"]) / 1e3, "us"
    m["weights.weight_by_edge.ms"] = ms("weights.weight_by_edge")
    m["weights.weight_by_edge.calls"] = calls("weights.weight_by_edge")
    m["weights.weight_by_barycentric.calls"] = calls("weights.weight_by_barycentric")
    m["cut.cut.self_ms"] = self_ms("cut.cut")
    m["cut.order_cut_polyline.ms"] = ms("cut.order_cut_polyline")
    m["cut.retriangulate_cut_faces.ms"] = ms("cut.retriangulate_cut_faces")
    m["cut.cut_points"] = count("cut.cut", "cut_points")
    m["tear.FaceBVH.build_ms"] = ms("tear.FaceBVH.build")
    hit = row("tear.scalpel_hit")
    m["tear.scalpel_hit.ms"] = ms("tear.scalpel_hit")
    m["tear.scalpel_hit.faces_tested"] = count("tear.scalpel_hit", "faces_tested")
    m["tear.scalpel_hit.hit_ratio"] = ratio(hit["counts"].get("hits", 0), hit["counts"].get("faces_tested", 0)), "ratio"
    for name in ("tear.build_tear_plane", "tear.trace_surface_path", "tear.open_tear"):
        m[f"{name}.ms"] = ms(name)
    m["tear.apply.self_ms"] = self_ms("tear.tear")  # tear() minus its measured children
    m["tear.intermediate_points"] = count("tear.tear", "intermediate_points")
    m["tear.duplicates"] = count("tear.tear", "duplicates")
    m["cli.validate_script.ms"] = ms("cli.validate_script")
    m["cli.run_script.self_ms"] = self_ms("cli.run_script")
    for layer in LAYERS:
        key = "quaternions.ms" if layer == "quaternions" else f"{layer}.self_ms"
        m[key] = layer_self(layer)
    m["trace.unattributed_ms"] = row("op")["self_ns"] / n_ops / 1e6, "ms/op"
    m["trace.op_ms"] = ms("op")
    m["trace.overhead_pct"] = tracing_overhead_pct(untraced["slot_cal"], traced["slot_cal"]), "%"
    m["setup.import_s"] = import_s, "s"
    return m


# ---------------------------------------------------------------- main


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    t0 = time.perf_counter()
    import mvskin
    from mvskin import cli, errors

    import_s = time.perf_counter() - t0
    if Path(mvskin.__file__).resolve().parent != ROOT / "src" / "mvskin":
        print(f"error: imported mvskin from {mvskin.__file__}, not from this checkout", file=sys.stderr)
        return 2
    import gen
    import spans

    if args.workload not in gen.CYCLE_PER_KIND:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    scratch = OUT_ROOT / f"{args.workload}-{args.seed}-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        rec = spans.SpanRecorder() if args.trace else None
        if rec is not None:
            targets = trace_targets()
            with rec.installed(*targets):
                model = prepare_model(cli, gen, args.workload, args.seed, scratch)
        else:
            model = prepare_model(cli, gen, args.workload, args.seed, scratch)
        print("ready", flush=True)
        calibrate = Calibration()
        print(f"cal {statistics.median(calibrate() for _ in range(5))!r}", flush=True)
        if args.setup_only:
            return 0
        return run(args, cli, errors, gen, model, scratch, rec, import_s)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def run(args, cli, errors, gen, model, scratch: Path, rec, import_s: float) -> int:
    reference = None
    if args.seed == DEFAULT_SEED and REFERENCE.is_file():
        reference = json.loads(REFERENCE.read_text(encoding="utf-8")).get(args.workload)
    ops = gen.op_cycle(args.workload, args.seed)
    check = OutputCheck(reference, ops)
    session = Session(cli, errors, model, ops, scratch / "out", check)
    kinds = gen.op_kinds(args.workload)

    # warm-up: the first op of each kind, untimed
    for j in range(len(kinds)):
        session.run_op(j, execute)

    result = {"kinds": list(kinds), "env": environment()}
    if rec is None:
        result.update(session.measure(args.seconds))
    else:
        half = args.seconds / 2.0
        untraced = session.measure(half)
        traced_op = rec.wrap("op", execute)

        def on_op(n):
            rec.current_op = n

        with rec.installed(*trace_targets()):
            traced = session.measure(half, traced_op, on_op)
        rec.current_op = None
        result.update(untraced)
        result["traced"] = {k: traced[k] for k in ("attempted", "failed", "elapsed_s")}
        result["layers"] = layer_metrics(rec, import_s, untraced, traced)
        table = rec.table([i for i, op in enumerate(rec.op) if op is not None])
        result["self_table"] = {
            name: {"calls": r["calls"], "total_ms": r["total_ns"] / 1e6, "self_ms": r["self_ns"] / 1e6}
            for name, r in table.items()
        }
        trace_path = OUT_ROOT / f"trace-{args.workload}.tsv"
        rec.write_tsv(trace_path)
        result["trace_file"] = str(trace_path.relative_to(ROOT))

    # the first op of each kind again, at the end: it must write the same bytes
    for j in range(len(kinds)):
        session.run_op(j, execute)
    if reference is not None:
        # every slot is compared with the reference, so finish the cycle untimed
        for j in range(len(ops)):
            if j not in check.first:
                session.run_op(j, execute)

    cycle = check.cycle(len(ops))
    outputs = {"cycle": cycle}
    if cycle is not None:
        outputs["digest"] = hashlib.sha256("".join(cycle).encode()).hexdigest()
    (OUT_ROOT / f"outputs-{args.workload}-{args.seed}.json").write_text(
        json.dumps(outputs, indent=1) + "\n", encoding="utf-8"
    )
    result["digest"] = outputs.get("digest")
    result["reference_checked"] = reference is not None
    problems = verdict(check, session, len(ops))
    result["correct"] = not problems
    result["problems"] = problems[:20]
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print("result " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
