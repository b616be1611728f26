"""arcaps benchmark: one workload, measured from outside the package.

    python3 perfbench/run.py --workload train-b100 --seed 1 --seconds 30 --trace 0

Run from anywhere; the package is imported from ``src/`` and the digit
generator from ``tests/digitgen.py`` of the checkout this file sits in.
``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones. The last line of standard output is the result object; the line
before it holds the details (environment, sample counts, the workload's
own metrics and the checks). See README.md in this directory.
"""

from __future__ import annotations

import argparse
import os
import sys

# BLAS threads are fixed before numpy loads. One thread: with two, OpenBLAS
# threads spin, and any other load on a 2-core machine slows small GEMMs
# (the batch-6 forwards of align-b6) by an order of magnitude.
BLAS_THREADS = 1
CORES = len(os.sched_getaffinity(0))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(min(BLAS_THREADS, CORES))

import ctypes  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import itertools  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import recorder  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
# Set-up is timed in fresh processes and the fastest is reported: other load
# only adds time, and on a 2-vCPU VM a probe took about 0.26 s on one CPU and
# 0.33 s on the other, so a median of a few flips between the two.
SETUP_PROBES = 11
PROBE_TIMEOUT_S = 120


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_package():
    """arcaps from this checkout's src/ and the seeded digit generator."""
    src, gen = ROOT / "src", ROOT / "tests" / "digitgen.py"
    if not (src / "arcaps" / "__init__.py").is_file() or not gen.is_file():
        fail(f"no arcaps sources under {ROOT}: need src/arcaps and tests/digitgen.py")
    sys.path.insert(0, str(src))
    arcaps = importlib.import_module("arcaps")
    if Path(arcaps.__file__).resolve().parent != src / "arcaps":
        fail(f"imported arcaps from {arcaps.__file__}, not from {src}")
    for name in ("analysis", "checkpoint", "config", "data", "tensor", "train"):
        importlib.import_module("arcaps." + name)
    spec = importlib.util.spec_from_file_location("digitgen", gen)
    digitgen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(digitgen)
    return arcaps, digitgen


def setup_seconds(seed, checkpoint):
    """Fastest wall time from process start to "ready" over fresh processes,
    and all the times."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), str(ROOT), str(seed)]
    if checkpoint:
        cmd.append(checkpoint)
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            try:
                line = proc.stdout.readline().strip()
                ready = time.perf_counter() - start
                proc.wait(timeout=PROBE_TIMEOUT_S)
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        if line != "ready" or proc.returncode != 0:
            fail(f"set-up probe failed (exit {proc.returncode}, said {line!r})")
        times.append(ready)
    return min(times), times


def blas_threads():
    """Thread count the loaded OpenBLAS reports, or None if it cannot be asked."""
    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*"))
    for lib in libs:
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(seed):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": CORES,
        "cpu_count": os.cpu_count(),
        "blas_threads_env": os.environ["OPENBLAS_NUM_THREADS"],
        "blas_threads": blas_threads(),
        "seed": seed,
    }


def measure(work, rec, seconds, traced):
    """Passes until ``seconds`` are used; the first pass is warm-up.

    Returns (timed pass durations, tracemalloc peak of the warm-up pass or
    None, count of passes that failed outside any unit).
    """
    start = time.perf_counter()
    durations = []
    peak = None
    stray_errors = 0
    for n in itertools.count():
        warmup = n == 0
        pass_idx = rec.begin_pass(warmup)
        result, ok = None, True
        try:
            if traced and warmup:
                with recorder.PeakMemory() as memory:
                    result = work.run_pass()
                peak = memory.peak_mb
            else:
                result = work.run_pass()
        except Exception:  # a failed pass is counted, and the run goes on
            traceback.print_exc()
            ok = False
            if rec.unit is not None:
                work.bad_units.add(rec.unit)
                work.cut_units.add(rec.unit)
            else:
                stray_errors += 1
        rec.close(pass_idx)
        if ok:
            work.after_pass(rec, pass_idx, result)
            if not warmup:
                durations.append(rec.duration(pass_idx))
        result = None
        # the per-instance wrappers hold the pass's model in a reference cycle
        gc.collect()
        if n >= 1 and time.perf_counter() - start + rec.duration(pass_idx) > seconds:
            return durations, peak, stray_errors


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    traced = bool(args.trace)

    arcaps, digitgen = import_package()
    mods = {name: getattr(arcaps, name) for name in
            ("analysis", "checkpoint", "data", "tensor", "train")}
    workdir = OUT / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    rec = recorder.Recorder()
    patcher = recorder.Patcher()
    try:
        work = workloads.WORKLOADS[args.workload](arcaps, digitgen, args.seed, workdir)
        setup_s, setup_samples = setup_seconds(args.seed, work.checkpoint)
        if traced:
            recorder.install_tracing(rec, patcher, mods)
        recorder.patch_batches(rec, patcher, mods["train"])
        work.setup(rec, patcher, traced)
        pass_s, peak_traced_mb, stray_errors = measure(work, rec, args.seconds, traced)
        work.final_checks()
    finally:
        patcher.restore()
        shutil.rmtree(workdir, ignore_errors=True)

    spans = rec.spans
    timed = [u for u, kind in rec.units if kind == work.unit_kind
             and u not in work.cut_units
             and spans[spans[u][recorder.PASS]][recorder.NAME] == "pass.timed"]
    attempted_units = sum(1 for _, kind in rec.units if kind == work.unit_kind)
    if not timed or not pass_s:
        fail("no timed unit completed")
    unit_ms = [rec.duration(u) * 1e3 for u in timed]
    pass_median = float(np.median(pass_s))
    end_to_end = {
        "setup_s": (setup_s, "s"),
        "img_per_s": (work.images_per_unit / np.median(unit_ms) * 1e3, "img/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    attempted = attempted_units + stray_errors + sum(a for a, _ in work.checks.values())
    failed = len(work.bad_units) + stray_errors + sum(f for _, f in work.checks.values())

    details = {
        "workload": args.workload,
        "trace": args.trace,
        "environment": environment(args.seed),
        "setup_s_median": float(np.median(setup_samples)),
        "samples": {"setup_s": len(setup_samples), "img_per_s": len(unit_ms),
                    "peak_rss_mb": 1, "timed_passes": len(pass_s)},
        "unit": work.unit_kind,
        "unit_ms": {"p50": float(np.median(unit_ms)),
                    "p90": float(np.percentile(unit_ms, 90)), "count": len(unit_ms)},
        "end_to_end": {k: v for k, (v, _) in end_to_end.items()},
        "pass_s": pass_median,
        "workload_metrics": {**work.details(unit_ms, pass_median),
                             "failed_share": failed / max(attempted, 1)},
        "checks": {"bad_units": len(work.bad_units), "pass_errors": stray_errors,
                   **{k: {"attempted": a, "failed": f} for k, (a, f) in work.checks.items()}},
    }
    metrics = end_to_end
    if traced:
        metrics = recorder.per_layer_metrics(rec, work.unit_kind, peak_traced_mb)
        details["per_layer_units"] = len(timed)
        if args.workload == "train-b100":
            details["count_check"] = count_check(metrics)
        OUT.mkdir(exist_ok=True)
        span_file = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
        rec.write(span_file)
        details["span_file"] = str(span_file.relative_to(ROOT))
    print(json.dumps(details))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }))


# op calls per default train step as ROADMAP.md states them
ROADMAP_CALLS = {"channel_affine": 21, "slice_axis0": 18, "channelwise_dot3d": 18,
                 "softmax_axis": 18, "route_combine": 18}


def count_check(metrics):
    """Measured op calls per train step against the ROADMAP's counts."""
    out = {}
    for op, expected in ROADMAP_CALLS.items():
        measured = metrics[f"tensor.{op}.calls"][0]
        out[op] = {"expected": expected, "measured": measured}
        if measured != expected:
            print(f"perfbench: {op} ran {measured} times per step, ROADMAP says {expected}",
                  file=sys.stderr)
    return out


if __name__ == "__main__":
    main()
