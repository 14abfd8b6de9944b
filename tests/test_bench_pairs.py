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
        # the change's quartiles span 75% of the parent's median, and its
        # tied run does not beat every parent run
        "ops_per_s bound unresolved: median -142% worse than the parent (bound 25%), "
        "but the quartile spreads are 4.17% (parent) and 75% (change) of the parent's median",
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


def _pairs(parent, change):
    return [{"parent": bench_pairs.parse_result(canned(*p)), "change": bench_pairs.parse_result(canned(*c))}
            for p, c in zip(parent, change)]


def test_bound_is_unresolved_when_either_side_spreads_wider_than_it():
    # the parent's quartiles 8-12 span 40% of its median 10, wider than the 25% bound
    parent = [(v, 0.30) for v in (6.0, 8.0, 10.0, 12.0, 14.0)]
    # the change's median equals the parent's: no change reads +0%, never -0%
    lines = bench_pairs.summarize(_pairs(parent, [(10.0, 0.30)] * 5), METRICS)
    assert "ops_per_s bound unresolved: median +0% worse than the parent (bound 25%), " \
        "but the quartile spreads are 40% (parent) and 0% (change) of the parent's median" in lines
    assert "op_p50_s bound kept: median +0% worse than the parent (bound 25%)" in lines
    # the change's own runs spread as widely: unresolved too
    lines = bench_pairs.summarize(_pairs([(8.0, 0.30)] * 5, parent), METRICS[:1])
    assert lines[-1] == "ops_per_s bound unresolved: median -25% worse than the parent (bound 25%), " \
        "but the quartile spreads are 0% (parent) and 50% (change) of the parent's median"


def test_bound_is_resolved_when_every_change_run_beats_every_parent_run():
    # both sides spread over 40% of the parent's median, but every change
    # run is faster than every parent run (this pins the lines of the rule
    # before unresolved, which these runs keep)
    parent = [(v, 0.30) for v in (6.0, 8.0, 10.0, 12.0, 14.0)]
    change = [(v, 0.30) for v in (15.0, 17.0, 19.0, 21.0, 23.0)]
    lines = bench_pairs.summarize(_pairs(parent, change), METRICS[:1])
    assert lines[-1] == "ops_per_s bound kept: median -90% worse than the parent (bound 25%)"
    # and a change that loses every run is exceeded, not unresolved
    lines = bench_pairs.summarize(_pairs(change, parent), METRICS[:1])
    assert lines[-1] == "ops_per_s bound exceeded: median +47.4% worse than the parent (bound 25%)"


def test_main_times_the_imports_alternately_in_fresh_interpreters(tmp_path, monkeypatch, capsys):
    checkouts = {side: tmp_path / side for side in bench_pairs.SIDES}  # equal path lengths
    for path in checkouts.values():
        path.mkdir()
    (checkouts["change"] / "BENCHMARK.json").write_text(json.dumps({"end_to_end": METRICS, "run_seconds": 5}))
    now, imports = [0.0], []

    def fake_run(cmd, cwd, **kwargs):
        if cmd[1:] == ["-c", "import divfrontier"]:
            side = Path(cwd).name
            # parent imports take 0.150 s; the change's 0.140, 0.142, ... s
            now[0] += 0.150 if side == "parent" else 0.140 + 0.002 * sum(s == "change" for s, _ in imports)
            imports.append((side, kwargs["env"]["PYTHONPATH"]))
            return subprocess.CompletedProcess(cmd, 0)
        assert cmd[1] == "perfbench/run.py"
        return subprocess.CompletedProcess(cmd, 0, stdout=canned(10.0, 0.1), stderr="")

    monkeypatch.setattr(subprocess, "run", fake_run)
    monkeypatch.setattr(bench_pairs, "perf_counter", lambda: now[0])
    argv = ["--parent", str(checkouts["parent"]), "--change", str(checkouts["change"]), "--workload", "certify",
            "--seed", "31", "--pairs", "2"]
    assert bench_pairs.main(argv) == 0
    assert len(imports) == 2 * bench_pairs.IMPORT_RUNS == 60
    # the side that goes first alternates from one round to the next
    assert [side for side, _ in imports[:6]] == ["parent", "change", "change", "parent", "parent", "change"]
    assert {path for _, path in imports} == {str(checkouts[side] / "src") for side in bench_pairs.SIDES}
    assert capsys.readouterr().out.splitlines()[-2:] == [
        "import divfrontier parent: median 0.15 s, quartiles 0.15-0.15 over 30 fresh interpreters",
        "import divfrontier change: median 0.169 s, quartiles 0.1545-0.1835 over 30 fresh interpreters",
    ]


def test_record_holds_the_printed_series(tmp_path, monkeypatch, capsys):
    checkouts = {side: tmp_path / side for side in bench_pairs.SIDES}
    for path in checkouts.values():
        path.mkdir()
    (checkouts["change"] / "BENCHMARK.json").write_text(json.dumps({"end_to_end": METRICS, "run_seconds": 5}))
    runs = {"parent": iter([(10.0, 0.10), (11.0, 0.09), (9.0, 0.11)]),
            "change": iter([(12.0, 0.08), (10.5, 0.10), (13.0, 0.07)])}
    now = [0.0]

    def fake_run(cmd, cwd=None, **kwargs):
        if cmd[0] == "git":  # the checkout's commit: "parent" or "change" as hex
            return subprocess.CompletedProcess(cmd, 0, stdout=Path(cmd[2]).name.encode().hex() + "\n")
        side = Path(cwd).name
        if cmd[1:] == ["-c", "import divfrontier"]:
            now[0] += 0.150 if side == "parent" else 0.140
            return subprocess.CompletedProcess(cmd, 0)
        return subprocess.CompletedProcess(cmd, 0, stdout=canned(*next(runs[side]), failed=side == "change"), stderr="")

    monkeypatch.setattr(subprocess, "run", fake_run)
    monkeypatch.setattr(bench_pairs, "perf_counter", lambda: now[0])
    record_path = tmp_path / "BENCH.json"
    argv = ["--parent", str(checkouts["parent"]), "--change", str(checkouts["change"]), "--workload", "certify",
            "--seed", "31", "--pairs", "3", "--record", str(record_path)]
    assert bench_pairs.main(argv) == 0
    printed = capsys.readouterr().out.splitlines()
    record = json.loads(record_path.read_text())
    assert (record["workload"], record["seed"], record["pairs"], record["run_seconds"]) == ("certify", 31, 3, 5)
    env = record["environment"]
    assert env["commits"] == {"parent": "parent".encode().hex(), "change": "change".encode().hex()}
    assert env["cpu_count"] >= 1 and {"python", "numpy", "scipy", "blas"} <= set(env)
    assert record["ops"] == {"parent": {"failed": 0, "attempted": 300}, "change": {"failed": 3, "attempted": 300}}
    ops = record["metrics"]["ops_per_s"]
    assert ops["parent"] == {"runs": [10.0, 11.0, 9.0], "median": 10.0, "quartiles": [9.5, 10.5]}
    assert ops["change"] == {"runs": [12.0, 10.5, 13.0], "median": 12.0, "quartiles": [11.25, 12.5]}
    assert (ops["wins"], ops["claim"], ops["bound_verdict"]) == (2, "fails", "kept")
    # every number of the printout is in the record
    lines = [line for line in printed if not line.startswith("pair ")]
    assert lines == bench_pairs.series_lines(record) + bench_pairs.import_lines(
        {side: record["imports"][side]["runs"] for side in bench_pairs.SIDES})
    assert record["imports"]["parent"]["runs"] == pytest.approx([0.150] * bench_pairs.IMPORT_RUNS)


def test_one_pair_has_its_value_as_quartiles():
    assert bench_pairs.quartiles([2.5]) == (2.5, 2.5, 2.5)


def test_empty_output_is_an_error():
    with pytest.raises(ValueError):
        bench_pairs.parse_result("\n")
