"""Tests of the benchmark itself: python3 -m pytest perfbench"""

from __future__ import annotations

import inspect
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import gen  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
from mvskin import cli, errors  # noqa: E402
from mvskin.rig import save_rig  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def _inputs(seed: int, tmp_path: Path) -> bytes:
    path = tmp_path / f"rig-{seed}.json"
    save_rig(gen.many_bones_model(seed), path)
    doc = {w: {"clip": gen.clip_actions(w, seed), "ops": gen.op_cycle(w, seed)} for w in run.WORKLOADS}
    return path.read_bytes() + json.dumps(doc, sort_keys=True).encode()


def test_generator_same_seed_same_bytes(tmp_path):
    assert _inputs(7, tmp_path) == _inputs(7, tmp_path)


def test_generator_other_seed_other_inputs(tmp_path):
    assert _inputs(7, tmp_path) != _inputs(8, tmp_path)
    for workload in run.WORKLOADS:
        a = [op["actions"] for op in gen.op_cycle(workload, 7)]
        b = [op["actions"] for op in gen.op_cycle(workload, 8)]
        assert all(x != y for x, y in zip(a, b)), workload


def test_generated_inputs_pass_script_validation(tmp_path):
    arm = cli.load_model("arm")
    path = tmp_path / "rig.json"
    save_rig(gen.many_bones_model(3), path)
    chain = cli.load_model(str(path))
    assert len(chain.bones) == gen.CHAIN_BONES
    assert {len(entry) for entry in chain.weights} == {gen.INFLUENCES}
    for workload, model in (("animate", arm), ("many-bones", chain), ("edit", arm)):
        model = worker.apply_clip(cli, model, gen.clip_actions(workload, 3))
        ops = gen.op_cycle(workload, 3)
        assert len(ops) == gen.CYCLE_PER_KIND[workload] * len(gen.op_kinds(workload))
        assert [op["kind"] for op in ops[:3]] == list(gen.op_kinds(workload))
        for op in ops:
            cli.validate_script(model, {"script_version": 1, "actions": op["actions"]})


def _session(ops, tmp_path, reference=None):
    check = worker.OutputCheck(reference, ops)
    return check, worker.Session(cli, errors, cli.load_model("arm"), ops, tmp_path, check)


def test_an_op_that_raises_makes_the_run_incorrect(tmp_path):
    ops = gen.op_cycle("animate", 0)[:3]
    check, session = _session(ops, tmp_path)

    def call(cli_, model, doc, out, backend, accel):
        if backend == "lbs":
            raise errors.DegenerateBlend("boom")
        return []

    assert worker.verdict(check, session, len(ops)) == []
    result = session.measure(0.05, call)
    assert result["failed"] >= 1 and "lbs" not in result["latencies_ms"]
    problems = worker.verdict(check, session, len(ops))
    assert problems and all("(lbs) raised DegenerateBlend" in p for p in problems)


def test_a_failed_warm_up_op_makes_the_run_incorrect(tmp_path):
    ops = gen.op_cycle("animate", 0)[:3]
    check, session = _session(ops, tmp_path)

    def call(*args):
        raise errors.MvskinError("boom")

    assert session.run_op(0, call) == ("cga", None)
    assert worker.verdict(check, session, len(ops))


def test_an_unchecked_slot_is_a_mismatch_when_there_is_a_reference(tmp_path):
    ops = gen.op_cycle("animate", 0)[:3]
    check, session = _session(ops, tmp_path, reference=["a", "b", "c"])
    assert check.record(0, "a", "op 0") and check.record(1, "b", "op 1")
    assert worker.verdict(check, session, len(ops)) == [
        "not every op of the cycle was compared with the recorded reference"
    ]
    assert check.record(2, "c", "op 2")
    assert worker.verdict(check, session, len(ops)) == []


def test_tear_and_tear_scan_of_the_same_stroke_must_match():
    ops = gen.op_cycle("edit", 0)
    assert ops[1]["actions"] == ops[2]["actions"] and ops[1]["accel"] != ops[2]["accel"]
    check = worker.OutputCheck(None, ops)
    assert check.twin[2] == 1 and check.twin[0] == 0
    assert check.record(1, "x", "op 1")
    assert not check.record(2, "y", "op 2")
    assert check.problems == ["op 2: output differs from op 1, which ran the same script"]


def test_self_times_on_a_hand_built_tree():
    #  0 [0, 100]
    #  +- 1 [10, 40]
    #  |  +- 2 [15, 25]
    #  +- 3 [50, 90]
    #     +- 4 [45, 60]   starts before its parent: clipped to [50, 60]
    #     +- 5 [55, 70]   overlaps 4: only [60, 70] is new
    #  6 [200, 230]       a second root
    start = [0, 10, 15, 50, 45, 55, 200]
    end = [100, 40, 25, 90, 60, 70, 230]
    parent = [-1, 0, 1, 0, 3, 3, -1]
    selfs = spans.self_times(start, end, parent)
    assert selfs == [100 - 30 - 40, 30 - 10, 10, 40 - 20, 15, 15, 30]


def test_self_times_of_nested_spans_add_up_to_the_root():
    start = [0, 5, 6, 30, 31, 40]
    end = [50, 20, 9, 45, 35, 44]
    parent = [-1, 0, 1, 0, 3, 3]
    assert sum(spans.self_times(start, end, parent)) == 50


def _bindings(modules, methods):
    found = {}
    for mod in modules.values():
        for attr, value in vars(mod).items():
            if inspect.isfunction(value):
                found[(mod.__name__, attr)] = value
            elif isinstance(value, dict) and not attr.startswith("__"):
                for key, item in value.items():
                    if inspect.isfunction(item):
                        found[(mod.__name__, attr, key)] = item
    for _, cls, meth, _ in methods:
        found[(cls.__name__, meth)] = cls.__dict__[meth]
    return found


def test_wrappers_are_removed_after_a_traced_run(tmp_path):
    modules, methods, counts = worker.trace_targets()
    before = _bindings(modules, methods)
    model = cli.load_model("arm")
    rec = spans.SpanRecorder()
    op = gen.op_cycle("edit", 0)[1]  # a tear with the BVH
    doc = {"script_version": 1, "actions": op["actions"]}
    with rec.installed(modules, methods, counts):
        assert cli.SKIN_BACKENDS["cga"] is not before[("mvskin.cli", "SKIN_BACKENDS", "cga")]
        rec.current_op = 0
        rec.wrap("op", worker.execute)(cli, model, doc, tmp_path, "cga", True)
    assert _bindings(modules, methods) == before
    names = set(rec.names)
    assert {"op", "cli.run_script", "tear.tear", "tear.scalpel_hit", "tear.FaceBVH.build"} <= names
    assert "rig.validate_model" in names and "weights.weight_by_edge" in names
    table = rec.table(range(len(rec.names)))
    assert table["tear.scalpel_hit"]["counts"]["hits"] == len(op["actions"][0]["states"])
    # self times along the op add up to the op's wall time
    assert sum(rec.self_times()) == table["op"]["total_ns"]

    with pytest.raises(RuntimeError):
        with rec.installed(modules, methods, counts):
            raise RuntimeError("boom")
    assert _bindings(modules, methods) == before


@pytest.mark.parametrize(
    "n, rank, pct",
    [(11, 1, 100.0 / 11), (20, 10, 50.0), (100, 90, 90.0), (101, 91, 100.0 * 91 / 101), (1000, 900, 90.0)],
)
def test_tail_is_p90_with_at_least_ten_samples_beyond(n, rank, pct):
    samples = [float(x) for x in range(n, 0, -1)]  # unsorted on purpose
    value, percentile, count = run.tail(samples)
    assert (value, count) == (float(rank), n)
    assert percentile == pytest.approx(pct)
    assert sum(1 for x in samples if x > value) == n - rank >= 10


def test_tail_with_too_few_samples_is_the_maximum():
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)
    with pytest.raises(ValueError):
        run.tail([])


def test_emitted_metric_names_and_units_match_benchmark_json():
    res = {
        "attempted": 9, "failed": 0, "elapsed_s": 1.0, "busy_s": 0.9, "peak_rss_mb": 50.0,
        "kinds": ["cga", "lbs", "dq"],
        "latencies_ms": {k: [1.0, 2.0, 3.0] for k in ("cga", "lbs", "dq")},
        "latencies_cal": {k: [10.0, 20.0, 30.0] for k in ("cga", "lbs", "dq")},
    }
    e2e, _ = run.end_to_end(res, [(0.2, 0.0015), (0.3, 0.002)])
    assert {n: u for n, (_, u) in e2e.items()} == {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    phase = {"attempted": 1, "failed": 0, "elapsed_s": 1.0, "slot_cal": {0: [1.0]}}
    layers = worker.layer_metrics(spans.SpanRecorder(), 0.1, phase, phase)
    assert {n: u for n, (_, u) in layers.items()} == {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
