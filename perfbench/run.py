"""mvskin benchmark launcher.

    python3 perfbench/run.py --workload animate --seed 0 --seconds 36 --trace 0

Runs one workload (or, without ``--workload``, each in turn) from the root
of a source checkout: ``src/mvskin`` is imported in place, nothing is
installed.  Every workload process gets BLAS pinned to one thread.

With ``--trace 0`` the result carries the end-to-end metrics: set-up time
is the median over several fresh interpreters, and the op latencies come
from one closed-loop client running for ``--seconds``.  Both are divided
by the time of a calibration kernel run next to them, so that the host's
changing speed cancels (see README.md).  With ``--trace 1`` the workload
runs half the time untraced and half with every mvskin layer wrapped in
spans, and the result carries the per-layer metrics.  The last stdout
line is the JSON result; the lines above it are the same numbers for
people, with units and sample counts, and the raw wall times.  The exit
status is non-zero when an output check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("animate", "many-bones", "edit")
SETUP_RUNS = 7  # fresh interpreters timed per run; the median is setup_s
# the tail is p90, lowered until at least TAIL_BEYOND samples lie above it;
# p97 (the 10th-highest of ~350 frames) spread up to 0.10 over ten seeds,
# p90 at most 0.05
TAIL_PCT = 90
TAIL_BEYOND = 10
SETUP_ALLOWANCE_S = 135.0  # a workload run must end within --seconds plus this, set-up included
# setup_s is scaled to the host speed at which the calibration kernel
# (worker.Calibration) takes this long, its time on an unloaded 2.1 GHz Xeon
CAL_REF_S = 0.0015

# Default OpenBLAS threading made skin_cga on the arm swing between 4.6 and
# 32 ms from one process to the next on a 2-core machine; one thread holds
# it at 6.0-6.3 ms.
BLAS_PINS = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}


def tail(samples):
    """(value, percentile, n): the TAIL_PCT-th percentile, lowered until TAIL_BEYOND samples lie above it.

    With n samples sorted ascending that is the sample of rank
    min(ceil(TAIL_PCT * n / 100), n - TAIL_BEYOND).  Fewer than
    TAIL_BEYOND + 1 samples leave no such percentile; the maximum is
    returned with percentile 100.
    """
    xs = sorted(samples)
    n = len(xs)
    if n == 0:
        raise ValueError("no samples")
    if n <= TAIL_BEYOND:
        return xs[-1], 100.0, n
    rank = min(-(-TAIL_PCT * n // 100), n - TAIL_BEYOND)
    return xs[rank - 1], 100.0 * rank / n, n


def kind_label(kind: str) -> str:
    return kind if kind in ("cut", "tear", "tear_scan") else f"frame_{kind}"


class WorkerError(RuntimeError):
    pass


def _env() -> dict:
    env = dict(os.environ)
    env.update(BLAS_PINS)
    env["PYTHONHASHSEED"] = "0"
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _worker(args, extra, deadline: float):
    """Start a worker; returns (seconds from launch to 'ready', calibration seconds, result or None)."""
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ] + extra
    started = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_env(), stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(max(0.0, deadline - started), proc.kill)
    watchdog.start()
    ready = None
    cal = None
    result = None
    try:
        for line in proc.stdout:
            if line.strip() == "ready" and ready is None:
                ready = time.perf_counter() - started
            elif line.startswith("cal "):
                cal = float(line.split()[1])
            elif line.startswith("result "):
                result = json.loads(line[len("result "):])
    finally:
        watchdog.cancel()
        proc.stdout.close()
        proc.wait()
    if time.perf_counter() >= deadline:
        raise WorkerError("workload process ran past the deadline")
    if proc.returncode != 0 or ready is None or cal is None:
        raise WorkerError(f"workload process exited with status {proc.returncode}")
    return ready, cal, result


def end_to_end(res: dict, setup: list) -> tuple:
    """(metrics, lines) of the untraced run."""
    done = res["attempted"] - res["failed"]
    raw = statistics.median(ready for ready, _ in setup)
    metrics = {
        "setup_s": (statistics.median(ready * CAL_REF_S / cal for ready, cal in setup), "s"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
    }
    lines = [
        f"  setup_s            {metrics['setup_s'][0]:.4f} s at the reference speed, {raw:.4f} s as run"
        f"   (median of {len(setup)} fresh interpreters)",
        f"  peak_rss_mb        {metrics['peak_rss_mb'][0]:.1f} MB",
        f"  ops_per_s          {done / res['busy_s']:.3f} 1/s   ({done} ops in {res['busy_s']:.2f} s of op time,"
        f" not gated)",
        f"  failed_op_ratio    {res['failed']}/{res['attempted']}",
    ]
    for slot, kind in enumerate(res["kinds"], start=1):
        label = kind_label(kind)
        ms = res["latencies_ms"].get(kind)
        if not ms:
            lines.append(f"  {label}: no op completed")
            continue
        cal = res["latencies_cal"][kind]
        value, pct, n = tail(cal)
        metrics[f"op{slot}_p50_cal"] = (statistics.median(cal), "cal")
        metrics[f"op{slot}_tail_cal"] = (value, "cal")
        ms_tail = tail(ms)[0]
        lines.append(
            f"  {label + '_p50':<18} {statistics.median(cal):8.3f} cal  {statistics.median(ms):9.3f} ms"
            f"   (op{slot}_p50_cal, n={n})"
        )
        lines.append(
            f"  {label + '_tail':<18} {value:8.3f} cal  {ms_tail:9.3f} ms   (op{slot}_tail_cal, p{pct:.1f}, n={n})"
        )
    return metrics, lines


def per_layer(res: dict) -> tuple:
    """(metrics, lines) of the traced run."""
    metrics = {name: tuple(pair) for name, pair in res["layers"].items()}
    value = {name: pair[0] for name, pair in metrics.items()}
    pooled = [x for xs in res["latencies_ms"].values() for x in xs]
    lines = ["  span                                   calls     self ms    total ms"]
    rows = sorted(res["self_table"].items(), key=lambda kv: -kv[1]["self_ms"])
    for name, row in rows[:25]:
        lines.append(f"  {name:<36} {row['calls']:>8} {row['self_ms']:>11.1f} {row['total_ms']:>11.1f}")
    layer_sum = sum(v for name, (v, unit) in metrics.items() if unit == "ms/op")
    lines.append(
        f"  layer self times per op add up to {layer_sum:.3f} ms; traced op wall {value['trace.op_ms']:.3f} ms;"
        f" untraced op wall {statistics.fmean(pooled):.3f} ms"
    )
    lines.append(
        f"  tracing overhead {value['trace.overhead_pct']:.1f}% of ops/s ({res['traced']['attempted']} traced,"
        f" {res['attempted']} untraced ops); spans written to {res['trace_file']}"
    )
    for name, (v, unit) in metrics.items():
        lines.append(f"  {name:<40} {v:.6g} {unit}")
    return metrics, lines


def run_workload(args) -> int:
    deadline = time.perf_counter() + args.seconds + SETUP_ALLOWANCE_S
    setup = []
    if not args.trace:
        for _ in range(SETUP_RUNS - 1):
            ready, cal, _ = _worker(args, ["--setup-only"], deadline)
            setup.append((ready, cal))
    ready, cal, res = _worker(args, [], deadline)
    setup.append((ready, cal))
    if res is None:
        raise WorkerError("workload process printed no result")
    res["setup"] = setup
    raw = ROOT / ".perfbench_out" / f"result-{args.workload}-{args.seed}-trace{args.trace}.json"
    raw.write_text(json.dumps(res) + "\n", encoding="utf-8")

    env = res["env"]
    print(
        f"workload {args.workload}  seed {args.seed}  one client, closed loop, {args.seconds:g} s"
        f"  trace {args.trace}"
    )
    print(
        f"  BLAS {env['blas_vendor']} {env['blas_version']}, {env['blas_threads']} thread(s); "
        f"nproc {env['nproc']}; Python {env['python']}; numpy {env['numpy']}"
    )
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expected = {m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if args.trace:
        metrics, lines = per_layer(res)
        attempted = res["attempted"] + res["traced"]["attempted"]
        failed = res["failed"] + res["traced"]["failed"]
    else:
        metrics, lines = end_to_end(res, setup)
        attempted, failed = res["attempted"], res["failed"]
    for line in lines:
        print(line)
    digest = res["digest"] or "(cycle not completed)"
    checked = "matched the recorded reference" if res["reference_checked"] else "repeated within the run"
    print(f"  output digest {digest}; outputs {checked if res['correct'] else 'FAILED the check'}")
    for problem in res["problems"]:
        print(f"  ! {problem}")
    correct = res["correct"] and set(metrics) == expected
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }), flush=True)
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="mvskin benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, help="default: every workload in turn")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "mvskin" / "__init__.py").is_file():
        print(f"error: no mvskin sources under {ROOT / 'src'}; run from a source checkout", file=sys.stderr)
        return 2
    status = 0
    for workload in [args.workload] if args.workload else WORKLOADS:
        args.workload = workload
        try:
            status = max(status, run_workload(args))
        except WorkerError as exc:
            print(f"error: {workload}: {exc}", file=sys.stderr)
            return 2
    return status


if __name__ == "__main__":
    sys.exit(main())
