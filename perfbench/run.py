"""Benchmark of the divfrontier package built from this checkout's ``src/``.

Usage (from the checkout root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (see BENCHMARK.json and perfbench/NOTES.md) in a closed
loop from one process: whole passes over the workload's operations until
the next pass would end after ``--seconds``, at least one. Each output is
checked outside the timed interval; every pass repeats its first
operation, and an operation run again must reproduce its first output
exactly. ``--trace 0`` prints the end-to-end
metrics; ``--trace 1`` runs half the time untraced and half traced and
prints the per-layer metrics. The last line of standard output is one JSON
object; a result file with the environment, input hash and every metric is
written under ``.perfbench_run/`` in the checkout.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
TRACE_COVERAGE_MIN = 0.95  # stage spans must explain this share of evaluate_pipeline


def tail_percentile(samples) -> tuple[float, float, int] | None:
    """(percentile, nearest-rank value, samples beyond it) for the highest
    percentile of TAIL_LADDER with at least ten samples beyond it."""
    xs = sorted(samples)
    best = None
    for pct in TAIL_LADDER:
        rank = math.ceil(pct * len(xs) / 100.0)
        if rank >= 1 and len(xs) - rank >= 10:
            best = (pct, xs[rank - 1], len(xs) - rank)
    return best


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (AttributeError, KeyError, TypeError):
        blas_name = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "machine": platform.machine(),
        **{var: os.environ.get(var) for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "FRONTIER_THREADS")},
    }


def measure_setup() -> float:
    """Median wall time of ``import divfrontier`` in a fresh interpreter."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    times = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        subprocess.run([sys.executable, "-c", "import divfrontier"], env=env, cwd=ROOT, check=True)
        times.append(perf_counter() - start)
    return statistics.median(times)


class Phase:
    """Timings and failures of one closed-loop phase."""

    def __init__(self):
        self.times: list[float] = []
        self.failed = 0
        self.passes = 0
        self.cpu_s = 0.0
        self.errors: list[str] = []

    @property
    def ops_per_s(self) -> float:
        return (len(self.times) - self.failed) / sum(self.times)


def run_op(op, op_id: str, phase: Phase, digests: dict, tracer=None) -> None:
    """Time one op, then check its output outside the timed interval."""
    t0 = perf_counter()
    try:
        out = tracer.op(op_id, op.run) if tracer else op.run()
        err = None
    except Exception:
        err = "raised"
    phase.times.append(perf_counter() - t0)
    if err is not None:
        err += "\n" + traceback.format_exc()
    else:
        try:
            err, digest = op.verify(out)
        except Exception:
            err = "output check raised\n" + traceback.format_exc()
        else:
            if err is None and digests.setdefault(op.key, digest) != digest:
                err = "output differs from this op's first run"
    if err is not None:
        phase.failed += 1
        phase.errors.append(f"{op.key}: {err}")
        print(f"FAILED {op.key}: {err}", file=sys.stderr)


def run_phase(ops, budget: float, digests: dict, tracer=None) -> Phase:
    """Whole passes over ops while the next one is predicted to end within budget."""
    phase = Phase()
    cpu0 = os.times()
    start = perf_counter()
    while True:
        for index, op in enumerate(ops):
            run_op(op, f"{phase.passes}:{index}", phase, digests, tracer)
        phase.passes += 1
        if (perf_counter() - start) * (phase.passes + 1) / phase.passes > budget:
            break
    cpu1 = os.times()
    phase.cpu_s = (cpu1.user - cpu0.user) + (cpu1.system - cpu0.system)
    return phase


def per_layer(name: str, tracer, summary: dict, plain: Phase, traced: Phase) -> float:
    """Per-layer metrics, per pass of the traced phase unless named otherwise."""
    passes = traced.passes
    if name == "process.cpu_s":  # own user+sys CPU per op, untraced
        return plain.cpu_s / len(plain.times)
    if name == "trace.overhead_frac":
        return 1.0 - traced.ops_per_s / plain.ops_per_s
    if name == "estimation.evaluate_pipeline.covered_frac":
        entry = summary.get("estimation.evaluate_pipeline")
        return 1.0 - entry["self_s"] / entry["total_s"] if entry else 0.0
    if name in tracer.maxima:
        return tracer.maxima[name]
    if name in tracer.counters:
        return tracer.counters[name] / passes
    base, field = name.rsplit(".", 1)
    if field in ("self_s", "calls"):
        return summary.get(base, {}).get(field, 0) / passes
    return 0.0  # a counter of a layer this workload does not call


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "divfrontier" / "__init__.py").is_file():
        print(f"perfbench: no divfrontier sources under {SRC}", file=sys.stderr)
        return 2
    if os.environ.get("FRONTIER_THREADS"):
        print("perfbench: FRONTIER_THREADS is set; unset it so the program's default is measured",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        print("perfbench: --seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2

    sys.path[:0] = [str(SRC), str(HERE)]
    import divfrontier as df
    import divfrontier.cli  # noqa: F401  (the embed workloads call the CLI)

    if Path(df.__file__).resolve().parent != SRC / "divfrontier":
        print(f"perfbench: imported divfrontier from {df.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import spans
    import workloads

    setup_s = measure_setup()
    workdir = ROOT / ".perfbench_run" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    t0 = perf_counter()
    prepared = workloads.WORKLOADS[args.workload](args.seed, workdir / "inputs", df)
    prepare_s = perf_counter() - t0
    rss_prepared = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    digests: dict[str, str] = {}
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment(),
              "input_sha256": prepared.input_sha256, "ops_per_pass": len(prepared.ops),
              "prepare_s": prepare_s}
    metrics: dict[str, tuple[float, str]] = {}
    info: dict[str, tuple[float, str]] = {}
    if args.trace == 0:
        plain = run_phase(prepared.ops, args.seconds, digests)
        phases = [plain]
        metrics["ops_per_s"] = (plain.ops_per_s, "ops/s")
        metrics["op_p50_s"] = (statistics.median(plain.times), "s")
        metrics["setup_s"] = (setup_s, "s")
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
        info["peak_rss_before_ops_mb"] = (rss_prepared, "MB (imports and inputs; references run in child processes)")
        tail = tail_percentile(plain.times)
        if tail is not None:  # omitted below 20 ops
            info["op_tail_s"] = (tail[1], f"s (p{tail[0]:g}, {tail[2]} of {len(plain.times)} ops beyond)")
        wanted = spec["end_to_end"]
    else:
        plain = run_phase(prepared.ops, args.seconds / 2, digests)
        tracer = spans.Tracer()
        restore = spans.instrument(tracer)
        try:
            traced = run_phase(prepared.ops, args.seconds / 2, digests, tracer)
        finally:
            restore()
        phases = [plain, traced]
        summary = spans.summarize(tracer.spans)
        spans_path = workdir / "spans.jsonl"
        tracer.write(spans_path)
        record["spans_file"] = str(spans_path.relative_to(ROOT))
        record["span_summary"] = summary
        wanted = spec["per_layer"]
        for m in wanted:
            metrics[m["name"]] = (per_layer(m["name"], tracer, summary, plain, traced), m["unit"])
        op_total = summary["op"]["total_s"]
        layer_self = {k: v["self_s"] for k, v in summary.items() if k != "op"}
        info["share.unattributed"] = (summary["op"]["self_s"] / op_total, "of op time")
        for module in sorted({k.split(".")[0] for k in layer_self}):
            share = sum(v for k, v in layer_self.items() if k.split(".")[0] == module) / op_total
            info[f"share.{module}"] = (share, "of op time")
        pipeline = summary.get("estimation.evaluate_pipeline")
        if pipeline:
            kernels = sum(layer_self.get(k, 0.0) for k in (
                "estimation.knn_support_metrics", "estimation.quantize", "estimation.QuantizationModel.assign"))
            info["share.pipeline_knn_kmeans"] = (kernels / pipeline["total_s"], "of evaluate_pipeline")
            covered = metrics["estimation.evaluate_pipeline.covered_frac"][0]
            if covered < TRACE_COVERAGE_MIN:
                plain.failed += 1
                plain.errors.append(f"trace: stage spans cover {covered:.3f} of evaluate_pipeline")

    shutil.rmtree(workdir / "inputs", ignore_errors=True)  # the seed regenerates them
    attempted = sum(len(p.times) for p in phases)
    failed = sum(p.failed for p in phases)
    info["error_rate"] = (failed / attempted, "fraction")
    record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in {**metrics, **info}.items()}
    record["attempted"], record["failed"] = attempted, failed
    record["errors"] = [e for p in phases for e in p.errors][:20]
    record["passes"] = [p.passes for p in phases]
    record["op_times"] = [p.times for p in phases]
    results = ROOT / ".perfbench_run" / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{workdir.name}.json").write_text(json.dumps(record, indent=2, default=float) + "\n")

    for name, (value, unit) in {**metrics, **info}.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]][0], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
