"""scripts/bench_pairs.py on canned perfbench output; no benchmark is run."""
import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

METRICS = [
    {"name": "ops_per_s", "unit": "ops/s", "better": "higher", "bound": 0.25},
    {"name": "op_p50_s", "unit": "s", "better": "lower", "bound": 0.25},
]


def canned(ops_per_s, op_p50_s, failed=0):
    """stdout of one perfbench run: readable lines, then the JSON line."""
    result = {
        "correct": failed == 0,
        "attempted": 100,
        "failed": failed,
        "metrics": {"ops_per_s": {"value": ops_per_s, "unit": "ops/s"}, "op_p50_s": {"value": op_p50_s, "unit": "s"}},
    }
    return f"certify ops_per_s = {ops_per_s:.6g} ops/s\ncertify op_p50_s = {op_p50_s:.6g} s\n{json.dumps(result)}\n"


def test_refuses_checkouts_of_unequal_path_length(tmp_path, monkeypatch, capsys):
    for name in ("parent", "change", "newtree"):
        (tmp_path / name).mkdir()

    def no_run(*args, **kwargs):
        raise AssertionError("nothing may run")

    monkeypatch.setattr(subprocess, "run", no_run)
    argv = ["--parent", str(tmp_path / "parent"), "--workload", "certify", "--seed", "31"]
    assert bench_pairs.main(argv + ["--change", str(tmp_path / "newtree")]) == 2
    assert "differ in length" in capsys.readouterr().err
    assert bench_pairs.unequal_path_lengths(tmp_path / "parent", tmp_path / "change") is None


def test_summary_of_canned_pairs():
    parent = [(18.0, 0.030), (17.0, 0.031), (20.0, 0.029), (18.0, 0.030)]
    change = [(50.0, 0.010), (17.0, 0.031), (47.0, 0.011), (40.0, 0.012)]
    pairs = [
        {"parent": bench_pairs.parse_result(canned(*p)), "change": bench_pairs.parse_result(canned(*c, failed=i))}
        for i, (p, c) in enumerate(zip(parent, change))
    ]
    lines = bench_pairs.summarize(pairs, METRICS)
    assert lines == [
        "parent: 0 of 400 ops failed over 4 runs",
        "change: 6 of 400 ops failed over 4 runs",
        "ops_per_s parent: median 18 ops/s, quartiles 17.75-18.5",
        "ops_per_s change: median 43.5 ops/s, quartiles 34.25-47.75",
        # the tied second pair counts for neither side
        "ops_per_s change wins 3/4 pairs (higher is better)",
        # 3 of 4 is below 9 of 10, however large the gain
        "ops_per_s claim fails: wins 3/4 (needs 9/10), median gain 25.5 against parent quartile spread 0.75",
        "ops_per_s bound kept: median -142% worse than the parent (bound 25%)",
        "op_p50_s parent: median 0.03 s, quartiles 0.02975-0.03025",
        "op_p50_s change: median 0.0115 s, quartiles 0.01075-0.01675",
        "op_p50_s change wins 3/4 pairs (lower is better)",
        "op_p50_s claim fails: wins 3/4 (needs 9/10), median gain 0.0185 against parent quartile spread 0.0005",
        "op_p50_s bound kept: median -61.7% worse than the parent (bound 25%)",
    ]


def test_verdict_of_ten_canned_pairs():
    # the change is faster in 9 of 10 pairs by more than the parent's
    # quartile spread, and its latency median is 30% worse, beyond 25%
    parent = [(3.0 + 0.01 * i, 0.30) for i in range(10)]
    change = [(3.5, 0.39)] * 9 + [(2.9, 0.39)]
    pairs = [{"parent": bench_pairs.parse_result(canned(*p)), "change": bench_pairs.parse_result(canned(*c))}
             for p, c in zip(parent, change)]
    lines = bench_pairs.summarize(pairs, METRICS)
    assert "ops_per_s change wins 9/10 pairs (higher is better)" in lines
    assert "ops_per_s claim holds: wins 9/10 (needs 9/10), median gain 0.455 against parent quartile spread 0.045" in lines
    assert "ops_per_s bound kept: median -14.9% worse than the parent (bound 25%)" in lines
    assert "op_p50_s claim fails: wins 0/10 (needs 9/10), median gain -0.09 against parent quartile spread 0" in lines
    assert "op_p50_s bound exceeded: median +30% worse than the parent (bound 25%)" in lines
    # a gain within the parent's quartile spread is no claim, even in 10/10 pairs
    wide = [(3.0 + 0.2 * i, 0.30) for i in range(10)]
    pairs = [{"parent": bench_pairs.parse_result(canned(*p)), "change": bench_pairs.parse_result(canned(p[0] + 0.1, 0.3))}
             for p in wide]
    assert bench_pairs.summarize(pairs, METRICS[:1])[5].startswith("ops_per_s claim fails: wins 10/10")


def test_one_pair_has_its_value_as_quartiles():
    assert bench_pairs.quartiles([2.5]) == (2.5, 2.5, 2.5)


def test_empty_output_is_an_error():
    with pytest.raises(ValueError):
        bench_pairs.parse_result("\n")
