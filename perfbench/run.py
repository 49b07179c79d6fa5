"""End-to-end benchmark of the spinhv CLI, with an optional traced run.

Usage, from the repository root:

    python3 perfbench/run.py --workload bounds-mix --seed 1 --seconds 38 --trace 0

The workload's op lists and input files come from ``--seed``
(``workloads.py``).  A run is a series of passes, one after another, each in
a fresh worker process (this script with ``--pass``) with inputs of its own
and the same composition.  In a pass, ops run as a closed loop with one
caller: each goes through ``spinhv.cli.main(argv)`` in-process with stdout
captured, and its report is checked (``checks.py``) after the loop, outside
the timed region.  A wrong answer aborts the run with exit code 1 and no
result line.  After the first two, a new pass starts only while it is
expected to end within ``--seconds`` of the first, so a run measures for
about ``--seconds`` whatever the speed of the machine or the program.

The machine this runs on is shared and switches between speeds for seconds
to minutes at a time, so times are reported at reference speed: each op's
time and each set-up sample is multiplied by the scale that ``speed.py``
probes around it (the unscaled figures go to the result file and the
human-readable lines).  The latencies are taken per pass and averaged over
the passes, because a statistic pooled over the whole run (a median, say)
jumps with whichever speed held for most of it, while a mean over passes
moves in proportion.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs each pass
untraced and then traced (``tracing.py``), and prints per-layer metrics:
times as shares of the traced op time, sizes as counts, and the tracing
overhead.  Either way the last stdout line is one JSON object, and a fuller
record (run context, failed ops, per-op times, per-layer seconds, spans)
goes to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 9
SETUP_TIMEOUT_S = 60
RUN_BUDGET_S = 170
TAIL_BEYOND = 10
PROBE_EVERY_S = 0.5
MIN_PASSES = 2
E2E_UNITS = {"ops_per_s": "ops/s", "latency_p50_ms": "ms", "latency_tail_ms": "ms", "ok_share": "ratio"}

READY_PROBE = "import sys, spinhv.cli; spinhv.cli.build_parser(); sys.stdout.write('ready\\n'); sys.stdout.flush()"


def parse_args(argv=None) -> argparse.Namespace:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="stop starting passes after this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pass", dest="pass_index", type=int, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def measure_setup() -> list[tuple[float, float]]:
    """(seconds, scale) per sample: spawning a fresh interpreter until spinhv.cli
    is imported and its parser built, and the speed scale probed around it."""
    import speed

    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples = []
    for _ in range(SETUP_REPEATS):
        before = speed.probe()
        start = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, "-c", READY_PROBE], stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True
        ) as child:
            try:
                line = child.stdout.readline()
                seconds = time.perf_counter() - start
                child.wait(timeout=SETUP_TIMEOUT_S)
            finally:
                if child.poll() is None:
                    child.kill()
                    child.wait()
        if line.strip() != "ready" or child.returncode != 0:
            raise RuntimeError(f"set-up probe failed with exit code {child.returncode}")
        samples.append((seconds, speed.scale((before + speed.probe()) / 2)))
    return samples


def run_ops(main, ops: list[dict], tracer=None) -> tuple[list[dict], float]:
    """Run ops in a closed loop; returns per-op records and the wall time.

    The speed probe runs before the first op, after the last, and between
    ops at least PROBE_EVERY_S apart, outside the ops' times; each op's
    ``scale`` comes from the mean of the probes on either side of it.
    """
    import speed

    records = []
    probes = [(0, speed.probe())]  # (index of the next op, probe seconds)
    start = last_probe = time.perf_counter()
    for op in ops:
        if time.perf_counter() - last_probe >= PROBE_EVERY_S:
            probes.append((len(records), speed.probe()))
            last_probe = time.perf_counter()
        if tracer is not None:
            tracer.op_id = len(records)
        out, err = io.StringIO(), io.StringIO()
        code, error = None, None
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(op["argv"])
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # an escaping exception is a failed op, not an abort
            error = f"{type(exc).__name__}: {exc}"
            err.write(traceback.format_exc())
        records.append(
            {
                "op": op,
                "seconds": time.perf_counter() - t0,
                "exit_code": code,
                "exception": error,
                "stdout": out.getvalue(),
                "stderr": err.getvalue(),
            }
        )
    wall = time.perf_counter() - start
    probes.append((len(records), speed.probe()))
    for (first, before), (end, after) in zip(probes, probes[1:]):
        for rec in records[first:end]:
            rec["scale"] = speed.scale((before + after) / 2)
    return records, wall


def _scaled_seconds(records: list[dict]) -> float:
    return sum(rec["seconds"] * rec["scale"] for rec in records)


def verify(records: list[dict]) -> None:
    """Check every report an op printed; exit 1 on the first wrong answer."""
    from checks import check

    for i, rec in enumerate(records):
        if rec["exception"] is not None or rec["exit_code"] not in (0, 3):
            continue  # failed op: counted, not checked
        problem = check(rec["op"], rec["stdout"])
        if problem:
            print(f"wrong answer from op {i} {rec['op']['argv']}: {problem}", file=sys.stderr)
            sys.exit(1)


def op_summary(rec: dict) -> dict:
    return {
        "argv": rec["op"]["argv"],
        "band": rec["op"]["band"],
        "kind": rec["op"]["kind"],
        "seconds": rec["seconds"],
        "scale": rec["scale"],
        "exit_code": rec["exit_code"],
        "exception": rec["exception"],
        "message": rec["stderr"].strip().splitlines()[-1] if rec["stderr"].strip() else "",
    }


def _ok(rec: dict) -> bool:
    return rec["exception"] is None and rec["exit_code"] == 0


def _tail_index(n: int) -> int:
    return max(0, n - TAIL_BEYOND - 1)


def end_to_end(passes: list[dict]) -> tuple[dict[str, float], dict]:
    """Metrics from op times at reference speed; the same from raw times go in the detail."""
    per_pass, raw_per_pass = [], []
    for p in passes:
        for out, key in ((per_pass, lambda op: op["seconds"] * op["scale"]), (raw_per_pass, lambda op: op["seconds"])):
            times = sorted(key(op) for op in p["ops"])
            out.append((statistics.median(times), times[_tail_index(len(times))]))
    ops = [op for p in passes for op in p["ops"]]
    n = len(ops)
    ok = sum(1 for op in ops if _ok(op))
    pass_ops = len(passes[0]["ops"])
    metrics = {
        "ops_per_s": ok / _scaled_seconds(ops),
        "latency_p50_ms": 1e3 * statistics.fmean(p50 for p50, _ in per_pass),
        "latency_tail_ms": 1e3 * statistics.fmean(tail for _, tail in per_pass),
        "ok_share": ok / n,
    }
    detail = {
        "op_count": n,
        "verified_ops": ok,
        "fail_share": (n - ok) / n,
        "pass_op_count": pass_ops,
        "tail_percentile": 100.0 * (_tail_index(pass_ops) + 1) / pass_ops,
        "pass_latencies_ms": [[1e3 * p50, 1e3 * tail] for p50, tail in per_pass],
        "raw": {
            "ops_per_s": ok / sum(op["seconds"] for op in ops),
            "latency_p50_ms": 1e3 * statistics.fmean(p50 for p50, _ in raw_per_pass),
            "latency_tail_ms": 1e3 * statistics.fmean(tail for _, tail in raw_per_pass),
            "mean_scale": statistics.fmean(op["scale"] for op in ops),
        },
        "wall_s": sum(p["wall_s"] for p in passes),
    }
    return metrics, detail


def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS loaded by numpy, if it can be asked."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def run_context() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "blas_thread_env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS") if k in os.environ},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_commit": _git_commit(),
        "src_lines": sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py"))),
    }


def run_pass(args) -> int:
    """Worker: one pass of ops in this process, checked, written to a pass file."""
    from workloads import generate, resolve_argv

    rounds, files = generate(args.workload, args.seed, args.pass_index)
    input_dir = OUT / "inputs" / f"{args.workload}-seed{args.seed}-pass{args.pass_index}"
    input_dir.mkdir(parents=True, exist_ok=True)
    for name, text in files.items():
        (input_dir / name).write_text(text)
    rel_dir = os.path.relpath(input_dir, os.getcwd())
    ops = [dict(op, argv=resolve_argv(op["argv"], rel_dir)) for round_ops in rounds for op in round_ops]

    import spinhv.cli

    records, wall = run_ops(spinhv.cli.main, ops)
    verify(records)
    result = {"wall_s": wall, "ops": [op_summary(rec) for rec in records]}
    if args.trace:
        from tracing import Tracer, layer_totals

        tracer = Tracer()
        tracer.install()
        try:
            traced, traced_wall = run_ops(spinhv.cli.main, ops, tracer)
        finally:
            tracer.uninstall()
        verify(traced)
        result["traced_wall_s"] = traced_wall
        result["traced_scaled_s"] = _scaled_seconds(traced)
        result["traced_ok"] = sum(1 for rec in traced if _ok(rec))
        result["layers"] = layer_totals(tracer.spans, sum(rec["seconds"] for rec in traced))
        (OUT / f"spans-{args.workload}-seed{args.seed}-pass{args.pass_index}.json").write_text(json.dumps(tracer.spans))
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    _pass_file(args, args.pass_index).write_text(json.dumps(result))
    return 0


def _pass_file(args, pass_index: int) -> Path:
    return OUT / f"pass-{args.workload}-seed{args.seed}-trace{args.trace}-{pass_index}.json"


def run_passes(args) -> list[dict]:
    """Run passes one after another, each in a fresh worker process: at least
    MIN_PASSES, so that a pass's random draws never stand alone, and more
    while the next one is expected to end within --seconds of the start."""
    passes, longest = [], 0.0
    start = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - start + longest <= args.seconds:
        p = len(passes)
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload, "--seed", str(args.seed)]
        argv += ["--seconds", str(args.seconds), "--trace", str(args.trace), "--pass", str(p)]
        t0 = time.perf_counter()
        budget = RUN_BUDGET_S - (t0 - start)
        worker = subprocess.run(argv, cwd=os.getcwd(), capture_output=True, text=True, timeout=budget)
        if worker.returncode != 0:
            sys.stderr.write(worker.stderr)
            sys.exit(worker.returncode)
        longest = max(longest, time.perf_counter() - t0)
        passes.append(json.loads(_pass_file(args, p).read_text()))
    return passes


def per_layer(passes: list[dict], untraced_ops_per_s: float) -> tuple[dict, dict]:
    from tracing import with_ratios

    totals = {}
    for p in passes:
        for name, value in p["layers"].items():
            totals[name] = totals.get(name, 0) + value
    seconds = with_ratios(totals)
    op_seconds = seconds.pop("trace.op_s")
    self_seconds = seconds.pop("trace.self_s")
    traced_ops_per_s = sum(p["traced_ok"] for p in passes) / sum(p["traced_scaled_s"] for p in passes)
    shown = {}
    for name, value in seconds.items():
        if name.endswith("_s"):
            shown[name[:-2] + "_share"] = (value / op_seconds, "ratio")
        elif name.endswith("_ratio"):
            shown[name] = (value, "ratio")
        else:
            shown[name] = (value, "count")
    shown["trace.accounted_share"] = (self_seconds / op_seconds, "ratio")
    shown["trace.overhead_ops_per_s"] = (traced_ops_per_s - untraced_ops_per_s, "ops/s")
    seconds.update({"trace.op_s": op_seconds, "trace.self_s": self_seconds, "trace.ops_per_s": traced_ops_per_s})
    return shown, seconds


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "spinhv" / "__init__.py").is_file():
        print(f"error: no spinhv package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    if args.pass_index is not None:
        return run_pass(args)

    setup = [] if args.trace else measure_setup()
    passes = run_passes(args)
    ops = [op for p in passes for op in p["ops"]]
    metrics, detail = end_to_end(passes)
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "context": run_context(),
        "passes_run": len(passes),
        **detail,
        "failed_ops": [op for op in ops if not _ok(op)],
        "op_seconds": [[" ".join(op["argv"]), op["seconds"], op["scale"], op["exit_code"]] for op in ops],
    }
    if args.trace:
        shown, result["layers"] = per_layer(passes, metrics["ops_per_s"])
    else:
        shown = {name: (value, E2E_UNITS[name]) for name, value in metrics.items()}
        shown["setup_s"] = (statistics.median(seconds * scale for seconds, scale in setup), "s")
        shown["peak_rss_mb"] = (max(p["peak_rss_mb"] for p in passes), "MiB")
        result["setup_samples"] = [{"seconds": seconds, "scale": scale} for seconds, scale in setup]
        result["raw"]["setup_s"] = statistics.median(seconds for seconds, _ in setup)

    result["metrics"] = {name: {"value": value, "unit": unit} for name, (value, unit) in shown.items()}
    result_file = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_file.write_text(json.dumps(result, indent=2))

    for name, (value, unit) in shown.items():
        print(f"{name:34s} {value:.6g} {unit}")
    raw = ", ".join(f"{name} {value:.6g}" for name, value in result["raw"].items())
    print(f"{'at the speed measured':34s} {raw}")
    failed = result["failed_ops"]
    print(f"{'fail_share':34s} {detail['fail_share']:.6g} ratio ({len(failed)} of {detail['op_count']} ops)")
    for f in failed:
        print(f"  failed: exit {f['exit_code']} {f['exception'] or f['message']} :: {' '.join(f['argv'])}")
    print(
        f"{len(passes)} passes of {detail['pass_op_count']} ops, tail at p{detail['tail_percentile']:.2f} of a pass;"
        f" result file {os.path.relpath(result_file, ROOT)}"
    )
    print(
        json.dumps(
            {
                "correct": True,
                "attempted": detail["op_count"],
                "failed": detail["op_count"] - detail["verified_ops"],
                "metrics": result["metrics"],
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
