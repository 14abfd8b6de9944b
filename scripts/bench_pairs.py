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
parent's by more than the metric's ``bound``.

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
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


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
    parent's by more than ``bound``, a fraction of the parent's median."""
    p_q1, p_med, p_q3 = quartiles(parent)
    gain = sign * (quartiles(change)[1] - p_med)
    claim = 10 * wins >= 9 * len(parent) and gain > p_q3 - p_q1
    worse = -gain / p_med
    return [
        f"{name} claim {'holds' if claim else 'fails'}: wins {wins}/{len(parent)} (needs 9/10), "
        f"median gain {gain:.6g} against parent quartile spread {p_q3 - p_q1:.6g}",
        f"{name} bound {'exceeded' if worse > bound else 'kept'}: median {100 * worse:+.3g}% worse "
        f"than the parent (bound {100 * bound:.3g}%)",
    ]


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, timeout=20 * seconds + 600)
    if done.returncode != 0:
        raise RuntimeError(f"{checkout}: perfbench exited {done.returncode}: {done.stderr.strip()[-2000:]}")
    return parse_result(done.stdout)


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
    return 0


if __name__ == "__main__":
    sys.exit(main())
