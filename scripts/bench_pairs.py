#!/usr/bin/env python3
"""Alternating benchmark pairs from two checkouts.

Runs ``perfbench/run.py`` of a parent checkout and of a change checkout in
turn, ``--pairs`` times, on one workload and seed, and swaps which side runs
first from one pair to the next. Each run starts from its own checkout root,
so each side measures its own ``src/``. Then, for every end-to-end metric in
the change's ``BENCHMARK.json``, it prints each side's median and quartiles,
the number of pairs the change won (ties count for neither side), whether a
gain may be claimed (at least 9 of 10 pairs won, and a median gain above the
parent's quartile spread), and whether the change's median is worse than the
parent's by more than the metric's ``bound``. That last is "unresolved" when
either side's quartile spread is wider than the bound, relative to the
parent's median, unless every change run beats every parent run: such runs
are too noisy to tell a kept bound from an exceeded one.

Last, it times ``import divfrontier`` in 30 fresh interpreters per side, as
perfbench's ``setup_s`` does, alternating which side goes first, and prints
each side's median and quartiles, so that a swing in ``setup_s`` can be read
against the import itself.

The two checkout paths must have the same length: readings have been seen
to move with the length of the checkout's path alone.

Usage:
    python3 scripts/bench_pairs.py --parent DIR --change DIR --workload certify \\
        --seed 31 --pairs 10

Each run lasts the ``run_seconds`` of the change's ``BENCHMARK.json``, so a
series is always at the length the benchmark is judged at.

With ``--record PATH`` it also writes the series as JSON: the workload,
seed, pairs and run length; the environment (CPU count, Python, NumPy,
SciPy and BLAS versions, and both checkouts' commits); each side's failed
and attempted ops; per metric, each side's runs, median and quartiles, the
pairs the change won, and the claim and bound verdicts; and the import times.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

SIDES = ("parent", "change")
IMPORT_RUNS = 30  # fresh interpreters per side


def unequal_path_lengths(parent: Path, change: Path) -> str | None:
    """Why the two checkouts cannot be compared, or None if they can."""
    a, b = str(parent.resolve()), str(change.resolve())
    if len(a) != len(b):
        return f"checkout paths differ in length ({len(a)} for {a}, {len(b)} for {b}); use names of equal length"
    return None


def parse_result(stdout: str) -> dict:
    """The JSON object on the last non-empty line of a perfbench run."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        raise ValueError("perfbench printed nothing")
    return json.loads(lines[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile); one value is all three."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def series(pairs: list[dict], metrics: list[dict]) -> dict:
    """The numbers the report prints for ``pairs``, each {"parent": result,
    "change": result}, over the end-to-end ``metrics`` of BENCHMARK.json
    (name, unit, better, bound): each side's failed and attempted ops, and
    per metric the runs, median and quartiles of each side, the pairs the
    change won (ties count for neither side) and the two verdicts (see
    metric_series)."""
    return {
        "pairs": len(pairs),
        "ops": {side: {key: sum(p[side][key] for p in pairs) for key in ("failed", "attempted")} for side in SIDES},
        "metrics": {
            m["name"]: metric_series(m, *([p[side]["metrics"][m["name"]]["value"] for p in pairs] for side in SIDES))
            for m in metrics
        },
    }


def metric_series(metric: dict, parent: list[float], change: list[float]) -> dict:
    """One metric's runs on each side, their quartiles, and two verdicts.

    The claim holds when the change wins at least 9 of 10 pairs and its
    median is better than the parent's by more than the parent's quartile
    spread. The bound is exceeded when the change's median is worse than the
    parent's by more than ``bound``, a fraction of the parent's median; it is
    unresolved when either side's quartile spread exceeds ``bound`` of the
    parent's median, unless every change run beats every parent run."""
    sign = 1.0 if metric["better"] == "higher" else -1.0
    (p_q1, p_med, p_q3), (c_q1, c_med, c_q3) = quartiles(parent), quartiles(change)
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    gain = sign * (c_med - p_med)
    worse = -gain / p_med + 0.0  # + 0.0 turns a zero change's -0.0 into +0
    spreads = {"parent": (p_q3 - p_q1) / abs(p_med), "change": (c_q3 - c_q1) / abs(p_med)}
    beats_all = all(sign * (c - p) > 0 for c in change for p in parent)
    unresolved = max(spreads.values()) > metric["bound"] and not beats_all
    return {
        "unit": metric["unit"],
        "better": metric["better"],
        "bound": metric["bound"],
        "parent": side_series(parent),
        "change": side_series(change),
        "wins": wins,
        "median_gain": gain,
        "parent_spread": p_q3 - p_q1,
        "claim": "holds" if 10 * wins >= 9 * len(parent) and gain > p_q3 - p_q1 else "fails",
        "worse": worse,
        "spreads": spreads,
        "bound_verdict": "unresolved" if unresolved else "exceeded" if worse > metric["bound"] else "kept",
    }


def side_series(runs: list[float]) -> dict:
    """One side's runs with their median and quartiles."""
    q1, med, q3 = quartiles(runs)
    return {"runs": runs, "median": med, "quartiles": [q1, q3]}


def summarize(pairs: list[dict], metrics: list[dict]) -> list[str]:
    """Report lines for ``pairs`` over ``metrics`` (see series)."""
    return series_lines(series(pairs, metrics))


def series_lines(numbers: dict) -> list[str]:
    """The report lines of a series, as ``series`` gives it."""
    lines = [f"{side}: {ops['failed']} of {ops['attempted']} ops failed over {numbers['pairs']} runs"
             for side, ops in numbers["ops"].items()]
    n = numbers["pairs"]
    for name, m in numbers["metrics"].items():
        for side in SIDES:
            (q1, q3), med = m[side]["quartiles"], m[side]["median"]
            lines.append(f"{name} {side}: median {med:.6g} {m['unit']}, quartiles {q1:.6g}-{q3:.6g}")
        lines.append(f"{name} change wins {m['wins']}/{n} pairs ({m['better']} is better)")
        lines.append(f"{name} claim {m['claim']}: wins {m['wins']}/{n} (needs 9/10), "
                     f"median gain {m['median_gain']:.6g} against parent quartile spread {m['parent_spread']:.6g}")
        bound_line = (f"{name} bound {m['bound_verdict']}: median {100 * m['worse']:+.3g}% worse than the parent "
                      f"(bound {100 * m['bound']:.3g}%)")
        if m["bound_verdict"] == "unresolved":
            bound_line += (f", but the quartile spreads are {100 * m['spreads']['parent']:.3g}% (parent) and "
                           f"{100 * m['spreads']['change']:.3g}% (change) of the parent's median")
        lines.append(bound_line)
    return lines


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, timeout=20 * seconds + 600)
    if done.returncode != 0:
        raise RuntimeError(f"{checkout}: perfbench exited {done.returncode}: {done.stderr.strip()[-2000:]}")
    return parse_result(done.stdout)


def time_imports(checkouts: dict[str, Path], runs: int = IMPORT_RUNS) -> dict[str, list[float]]:
    """Wall seconds of ``import divfrontier`` from each checkout's ``src/`` in
    ``runs`` fresh interpreters per side, alternating which side goes first."""
    times = {side: [] for side in SIDES}
    for i in range(runs):
        for side in SIDES if i % 2 == 0 else SIDES[::-1]:
            env = {**os.environ, "PYTHONPATH": str((checkouts[side] / "src").resolve())}
            start = perf_counter()
            subprocess.run([sys.executable, "-c", "import divfrontier"], env=env, cwd=checkouts[side], check=True)
            times[side].append(perf_counter() - start)
    return times


def import_lines(times: dict[str, list[float]]) -> list[str]:
    """One line per side: the median and quartiles of its import times."""
    lines = []
    for side in SIDES:
        q1, med, q3 = quartiles(times[side])
        lines.append(f"import divfrontier {side}: median {med:.4g} s, quartiles {q1:.4g}-{q3:.4g} "
                     f"over {len(times[side])} fresh interpreters")
    return lines


def commit_of(checkout: Path) -> str | None:
    """The checkout's HEAD commit, or None where it is not a git checkout."""
    done = subprocess.run(["git", "-C", str(checkout), "rev-parse", "HEAD"], capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else None


def environment(checkouts: dict[str, Path]) -> dict:
    """The host and the libraries the runs used (this interpreter's: each run
    is started with it), and each side's commit."""
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "commits": {side: commit_of(checkouts[side]) for side in SIDES},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, required=True, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--record", type=Path, help="also write the series as JSON to this file")
    args = parser.parse_args(argv)

    refusal = unequal_path_lengths(args.parent, args.change)
    if refusal:
        print(f"bench_pairs: {refusal}", file=sys.stderr)
        return 2
    if args.pairs < 1:
        print("bench_pairs: --pairs must be >= 1", file=sys.stderr)
        return 2
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    metrics, seconds = spec["end_to_end"], spec["run_seconds"]
    checkouts = {"parent": args.parent, "change": args.change}
    pairs = []
    for i in range(args.pairs):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        pair = {side: run_once(checkouts[side], args.workload, args.seed, seconds) for side in order}
        pairs.append(pair)
        print(f"pair {i + 1} ({order[0]} first): " + ", ".join(
            f"{side} {m['name']}={pair[side]['metrics'][m['name']]['value']:.6g}" for side in SIDES for m in metrics
        ), flush=True)
    print("\n".join(summarize(pairs, metrics)))
    imports = time_imports(checkouts)
    print("\n".join(import_lines(imports)))
    if args.record:
        record = {
            "workload": args.workload,
            "seed": args.seed,
            "run_seconds": seconds,
            "environment": environment(checkouts),
            **series(pairs, metrics),
            "imports": {side: side_series(imports[side]) for side in SIDES},
        }
        args.record.write_text(json.dumps(record, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
