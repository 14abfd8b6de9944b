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
"""
from __future__ import annotations

import argparse
import json
import os
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


def summarize(pairs: list[dict], metrics: list[dict]) -> list[str]:
    """Report lines for ``pairs``, each {"parent": result, "change": result},
    over the end-to-end ``metrics`` of BENCHMARK.json (name, unit, better, bound)."""
    lines = []
    for side in SIDES:
        failed = sum(p[side]["failed"] for p in pairs)
        attempted = sum(p[side]["attempted"] for p in pairs)
        lines.append(f"{side}: {failed} of {attempted} ops failed over {len(pairs)} runs")
    for metric in metrics:
        name, unit = metric["name"], metric["unit"]
        values = {side: [p[side]["metrics"][name]["value"] for p in pairs] for side in SIDES}
        for side in SIDES:
            q1, med, q3 = quartiles(values[side])
            lines.append(f"{name} {side}: median {med:.6g} {unit}, quartiles {q1:.6g}-{q3:.6g}")
        sign = 1.0 if metric["better"] == "higher" else -1.0
        wins = sum(sign * (c - p) > 0 for p, c in zip(values["parent"], values["change"]))
        lines.append(f"{name} change wins {wins}/{len(pairs)} pairs ({metric['better']} is better)")
        lines.extend(verdict(name, values["parent"], values["change"], wins, sign, metric["bound"]))
    return lines


def verdict(name: str, parent: list[float], change: list[float], wins: int, sign: float, bound: float) -> list[str]:
    """Two lines: whether a gain may be claimed (the change wins at least
    9 of 10 pairs, and its median is better than the parent's by more than
    the parent's quartile spread), and whether its median is worse than the
    parent's by more than ``bound``, a fraction of the parent's median. The
    second is unresolved when either side's quartile spread exceeds ``bound``
    of the parent's median, unless every change run beats every parent run."""
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    gain = sign * (c_med - p_med)
    claim = 10 * wins >= 9 * len(parent) and gain > p_q3 - p_q1
    worse = -gain / p_med + 0.0  # + 0.0 turns a zero change's -0.0 into +0
    spreads = (p_q3 - p_q1) / abs(p_med), (c_q3 - c_q1) / abs(p_med)
    beats_all = all(sign * (c - p) > 0 for c in change for p in parent)
    unresolved = max(spreads) > bound and not beats_all
    bound_line = (
        f"{name} bound {'unresolved' if unresolved else 'exceeded' if worse > bound else 'kept'}: "
        f"median {100 * worse:+.3g}% worse than the parent (bound {100 * bound:.3g}%)"
    )
    if unresolved:
        bound_line += (
            f", but the quartile spreads are {100 * spreads[0]:.3g}% (parent) and {100 * spreads[1]:.3g}% (change) "
            "of the parent's median"
        )
    return [
        f"{name} claim {'holds' if claim else 'fails'}: wins {wins}/{len(parent)} (needs 9/10), "
        f"median gain {gain:.6g} against parent quartile spread {p_q3 - p_q1:.6g}",
        bound_line,
    ]


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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, required=True, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, default=10)
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
    print("\n".join(import_lines(time_imports(checkouts))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
