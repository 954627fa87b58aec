"""vqstego benchmark: one closed-loop client driving the public API.

    python3 perfbench/run.py --workload noisy-roundtrip --seed 1 \\
        --seconds 30 --trace 0

Run from anywhere; it benchmarks the vqstego source in this checkout's
``src/`` and exits 2 without a result when there is none. ``--trace 0``
measures the end-to-end metrics. ``--trace 1`` first runs the workload
untraced for half the time, then replays the same operations with every
layer wrapped (see tracer.py), asserts that the outputs are identical, and
reports the per-layer metrics plus the tracing overhead. The last line of
stdout is the result object; the line before it stamps the environment.
Spans and a full result file go to ``.perfbench_work/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS")
# One client uses one core, so a second BLAS thread would only compete with
# whatever else the machine runs. Set before numpy loads (here and, inherited,
# in the set-up probes); a caller's own setting wins and is stamped into the
# result.
for _var in BLAS_THREAD_VARS:
    os.environ.setdefault(_var, "1")

import setup_probe  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_DIR = ROOT / ".perfbench_work"
SETUP_SAMPLES = 3


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def measure_setup_s() -> float:
    """Median wall time of a fresh interpreter running setup_probe.py."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = perf_counter()
        subprocess.run([sys.executable, str(BENCH_DIR / "setup_probe.py")],
                       check=True, timeout=120, stdout=subprocess.DEVNULL)
        samples.append(perf_counter() - start)
    return statistics.median(samples)


def git_commit() -> str | None:
    """HEAD of this checkout, or None when it is not a git work tree."""
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def source_digest() -> str:
    """Hash of the benchmarked source, for checkouts without git metadata."""
    h = hashlib.blake2b(digest_size=16)
    for path in sorted((setup_probe.SRC / "vqstego").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(setup_probe.SRC)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def environment(args) -> dict:
    """What two results must share to be comparable."""
    import numpy
    import scipy
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]
        blas = {k: deps["blas"].get(k) for k in
                ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = None
    return {
        "git_commit": git_commit(),
        "source_digest": source_digest(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_thread_env": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def closed_loop(workload, budget_s: float = 0.0, count: int | None = None,
                tracer=None):
    """One client: each operation starts after the previous one ends.

    Without ``count`` it runs at least ``workload.min_ops`` operations, then
    starts another only while it is expected to finish within the budget.
    """
    from workloads import OpResult

    results = []
    start = perf_counter()
    while True:
        index = len(results)
        if count is not None:
            if index >= count:
                break
        elif index >= workload.min_ops:
            typical = statistics.median(r.wall_s for r in results)
            if perf_counter() - start + typical > budget_s:
                break
        op_start = perf_counter()
        try:
            with tracer.op(index) if tracer else nullcontext():
                result = workload.op(index)
        except Exception:  # a failed operation is counted, not fatal
            result = OpResult(wall_s=perf_counter() - op_start, messages=0,
                              failures=[traceback.format_exc()])
        results.append(result)
    return results, perf_counter() - start


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def end_to_end(results, window_s: float, setup_s: float) -> dict:
    ok = sum(1 for r in results if not r.failures)
    return {
        "setup_s": (setup_s, "s"),
        "messages_per_s": (sum(r.messages for r in results) / window_s,
                           "msg/s"),
        "op_s": (statistics.median(r.wall_s for r in results), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "ok_share": (ok / len(results), "ratio"),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_quality(results, count: int) -> dict:
    """Quality means over the first ``count`` operations, phase medians."""
    from workloads import QUALITY_UNITS

    first = results[:count]
    out = {name: (_mean(r.quality.get(name, 0.0) for r in first), unit)
           for name, unit in QUALITY_UNITS.items()}
    for phase in ("embed_s", "extract_s"):
        values = [r.phases[phase] for r in results if phase in r.phases]
        out["roundtrip." + phase] = (
            statistics.median(values) if values else 0.0, "s")
    return out


def per_layer(workload, untraced):
    """Replay the untraced operations traced; return metrics and failures."""
    import tracer as tracing

    tracer = tracing.Tracer()
    with tracer.installed():
        traced, _ = closed_loop(workload, count=len(untraced), tracer=tracer)
    failures = []
    for i, (plain, seen) in enumerate(zip(untraced, traced)):
        if plain.output != seen.output:
            seen.failures.append(f"op {i}: traced output differs")
        failures += [f"traced op {i}: {f}" for f in seen.failures]
    WORK_DIR.mkdir(exist_ok=True)
    tracer.write_spans(WORK_DIR / f"spans-{workload.name}-{workload.seed}"
                                  f".jsonl")

    metrics = tracing.layer_metrics(tracer)
    plain_s = sum(r.wall_s for r in untraced)
    traced_s = sum(r.wall_s for r in traced)
    by_module = tracing.module_self_s(tracer)
    metrics.update({
        "trace.untraced_s": (plain_s, "s"),
        "trace.traced_s": (traced_s, "s"),
        "trace.overhead_s": (traced_s - plain_s, "s"),
        "trace.overhead_share": ((traced_s - plain_s) / plain_s, "ratio"),
        "layers.optimizer_channel_vq.self_share": (
            sum(by_module.get(m, 0.0) for m in ("optimizer", "channel", "vq"))
            / traced_s, "ratio"),
        "layers.codec_token_model.self_share": (
            sum(by_module.get(m, 0.0) for m in ("codec", "token_model"))
            / traced_s, "ratio"),
    })
    return metrics, traced, failures


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        setup_probe.use_checkout_source()
    except setup_probe.MissingSource as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    env = environment(args)
    setup_s = measure_setup_s()
    setup_probe.set_up()
    workload = WORKLOADS[args.workload](args.seed)
    if args.trace:
        results, _ = closed_loop(workload, args.seconds / 2)
        metrics, traced, failures = per_layer(workload, results)
        metrics.update(run_quality(results, workload.min_ops))
        attempted = len(results) + len(traced)
        failed = (sum(1 for r in results if r.failures)
                  + sum(1 for r in traced if r.failures))
    else:
        results, window_s = closed_loop(workload, args.seconds)
        metrics = end_to_end(results, window_s, setup_s)
        failures = []
        attempted = len(results)
        failed = sum(1 for r in results if r.failures)
    failures += [f"op {i}: {f}" for i, r in enumerate(results)
                 for f in r.failures]

    correct = not failures
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    record = {"environment": env, "failures": failures, **result}
    WORK_DIR.mkdir(exist_ok=True)
    with open(WORK_DIR / f"result-{args.workload}-{args.seed}-"
                         f"trace{args.trace}.json", "w") as f:
        json.dump(record, f, indent=2)
    for line in failures:
        print(f"check failed: {line}", file=sys.stderr)
    print(json.dumps({"environment": env}))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
