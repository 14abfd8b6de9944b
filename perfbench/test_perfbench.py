"""Self-tests of the benchmark: run with ``python3 -m pytest perfbench -q``."""
import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import divfrontier as df  # noqa: E402
import reference as ref  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


@pytest.mark.parametrize("n, expected", [
    (19, None),
    (20, (50.0, 10, 10)),
    (39, (50.0, 20, 19)),
    (40, (75.0, 30, 10)),
    (110, (90.0, 99, 11)),
    (200, (95.0, 190, 10)),
    (1000, (99.0, 990, 10)),
])
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    got = run.tail_percentile(range(1, n + 1))
    assert got == expected
    if got is not None:
        assert sum(x > got[1] for x in range(1, n + 1)) >= 10


def test_self_time_on_synthetic_span_tree():
    # root 0..10 with children 1..4 and 3..6 (overlapping, union 5) and 8..9;
    # the first child has a grandchild 2..3
    tree = [
        ("root", 0.0, 10.0, -1, "op"),
        ("a", 1.0, 4.0, 0, "op"),
        ("b", 3.0, 6.0, 0, "op"),
        ("c", 8.0, 9.0, 0, "op"),
        ("d", 2.0, 3.0, 1, "op"),
    ]
    summary = spans.summarize(tree)
    assert summary["root"]["self_s"] == pytest.approx(10.0 - 6.0)
    assert summary["a"]["self_s"] == pytest.approx(2.0)
    assert summary["b"]["self_s"] == pytest.approx(3.0)
    assert summary["d"]["total_s"] == pytest.approx(1.0)
    assert summary["root"]["calls"] == 1


def test_metric_and_workload_names_use_the_allowed_charset():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names), [n for n in names if not NAME.match(n)]
    assert set(workloads.WORKLOADS) == {w["name"] for w in SPEC["workloads"]}


def test_every_per_layer_metric_has_a_source():
    known = {f"{m}.{a}" for m, a in spans.SPANS} | {f"{m}.{c}.{a}" for m, c, a in spans.METHOD_SPANS}
    counters = {f"{m}.{c}.calls" for m, c in spans.COUNTED_INITS} | {
        "discrete_frontier.frontier.points_kept", "discrete_frontier.frontier.max_gap",
        "oracle.enumerate_simplex.points", "oracle.pareto_filter.points_in",
        "oracle.pareto_filter.points_kept", "io.load_samples_csv.bytes"}
    special = {"process.cpu_s", "trace.overhead_frac", "estimation.evaluate_pipeline.covered_frac"}
    for m in SPEC["per_layer"]:
        name = m["name"]
        base, field = name.rsplit(".", 1)
        assert name in special or name in counters or (field in ("self_s", "calls") and base in known), name


@pytest.mark.parametrize("make", [
    lambda s: workloads.embed_d64_pair(workloads.rng_for(s, 0)),
    lambda s: workloads.embed_modes_d4_pair(workloads.rng_for(s, 1)),
    lambda s: workloads.sweep_histograms(workloads.rng_for(s, 0)),
    lambda s: workloads.sweep_gaussians(workloads.rng_for(s, 0)),
    lambda s: workloads.certify_pairs(workloads.rng_for(s, 0)),
])
def test_generators_are_deterministic_in_the_seed(make):
    def flat(x):
        if isinstance(x, np.ndarray):
            return [x.tobytes()]
        if isinstance(x, (list, tuple)):
            return [b for item in x for b in flat(item)]
        return [repr(x).encode()]

    assert flat(make(7)) == flat(make(7))
    assert flat(make(7)) != flat(make(8))


@pytest.mark.parametrize("name", ["frontier-sweep", "certify"])
def test_prepared_input_hash_repeats(name, tmp_path):
    first = workloads.WORKLOADS[name](3, tmp_path / "a", df).input_sha256
    assert workloads.WORKLOADS[name](3, tmp_path / "b", df).input_sha256 == first
    assert workloads.WORKLOADS[name](4, tmp_path / "c", df).input_sha256 != first


def test_pareto_min_matches_the_package_filter():
    rng = np.random.default_rng(0)
    pts = np.round(rng.uniform(0, 1, (300, 2)), 1)  # many exact ties
    pts[:5, 0] = np.inf
    want = sorted(df.pareto_filter([tuple(p) for p in pts]))
    got = sorted(set(map(tuple, ref.pareto_min(pts))))
    assert got == want


def _curve_case():
    rng = np.random.default_rng(5)
    hp, hq = df.Histogram(rng.dirichlet(np.ones(12))), df.Histogram(rng.dirichlet(np.ones(12)))
    curve = df.frontier(hp, hq, df.Alpha.finite(2.0), "exclusive", 101)
    values_at = lambda lams: ref.discrete_frontier_values(hp.probs, hq.probs, 2.0, "exclusive", lams)
    return curve, values_at, np.linspace(0.0, 1.0, 101)


def test_curve_check_accepts_the_package_and_catches_changes():
    curve, values_at, grid = _curve_case()
    assert ref.curve_mismatch(curve.points, values_at, grid) is None
    pts = [list(p) for p in curve.points]
    pts[len(pts) // 2][2] *= 1 + 1e-6
    assert "reference" in ref.curve_mismatch(pts, values_at, grid)
    assert "missing" in ref.curve_mismatch(curve.points[1:], values_at, grid)


def test_simplex_grid_matches_the_oracle_grid():
    for n, m in ((2, 7), (3, 12), (4, 9)):
        want = sorted(map(tuple, df.oracle.enumerate_simplex(n, m).points))
        assert sorted(map(tuple, ref.simplex_grid(n, m))) == want


@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("side", ["exclusive", "inclusive"])
def test_certify_reference_reproduces_the_oracle_numbers(alpha, side):
    rng = np.random.default_rng(4)
    p, q = rng.uniform(0.15, 1.0, 4), rng.uniform(0.15, 1.0, 4)
    hp, hq, a = df.Histogram(p), df.Histogram(q), df.Alpha.parse(alpha)
    curve = df.discrete_frontier.frontier(hp, hq, a, side, 51)
    verdict = df.oracle.certify_frontier(hp, hq, a, side, curve, m=20)
    want = ref.certify_numbers([(x, y) for _, x, y in curve.points], ref.grid_front(p, q, alpha, side, 20))
    got = (verdict["max_dominance_violation"], verdict["hausdorff_distance"])
    assert ref.close(got, want).all(), (got, want)


def test_certify_check_catches_a_wrong_verdict(tmp_path):
    op = workloads.WORKLOADS["certify"](3, tmp_path, df).ops[0]
    curve, verdict = op.run()
    assert op.verify((curve, verdict))[0] is None
    for key in ("max_dominance_violation", "hausdorff_distance"):
        wrong = {**verdict, key: verdict[key] + 1e-6}
        assert "reference" in op.verify((curve, wrong))[0]
    assert "verdict" in op.verify((curve, {**verdict, "pass": False}))[0]


def test_in_child_returns_the_result_and_reports_failure():
    assert workloads.in_child(lambda: {"x": np.arange(3)})["x"].tolist() == [0, 1, 2]
    with pytest.raises(RuntimeError):
        workloads.in_child(lambda: 1 / 0)


def test_gaussian_reference_matches_frontier_kl():
    rng = np.random.default_rng(2)
    _, (mp, cp), (mq, cq) = workloads.sweep_gaussians(rng)[0]
    gp, gq = df.GaussianParams(mp, cp), df.GaussianParams(mq, cq)
    for side in ("exclusive", "inclusive"):
        curve = df.frontier_kl(gp, gq, side, 51)
        check = lambda lams: ref.gaussian_kl_frontier_values(mp, cp, mq, cq, side, lams)
        assert ref.curve_mismatch(curve.points, check, np.linspace(0.0, 1.0, 51)) is None


def test_estimation_reference_reproduces_the_package_exactly():
    rng = np.random.default_rng(11)
    p, q = rng.standard_normal((300, 3)), 0.8 * rng.standard_normal((300, 3)) + 0.3
    hp, hq, _ = df.quantize(p, q, 8, 0)
    cp, cq = ref.quantize_counts(p, q, 8, 0)
    assert hp.probs.tolist() == ref.smoothed_histogram(cp).tolist()
    assert hq.probs.tolist() == ref.smoothed_histogram(cq).tolist()
    assert df.knn_support_metrics(p, q, 3) == (ref.fraction_covered(p, q, 3), ref.fraction_covered(q, p, 3))


def test_instrument_records_caller_namespaces_and_restores():
    before = (df.oracle.pareto_filter, df.discrete_frontier.pareto_filter, df.Histogram.__post_init__)
    tracer = spans.Tracer()
    restore = spans.instrument(tracer)
    try:
        hp, hq = df.Histogram([0.5, 0.3, 0.2]), df.Histogram([0.2, 0.3, 0.5])
        curve = df.discrete_frontier.frontier(hp, hq, df.Alpha.finite(2.0), "exclusive", 21)
        tracer.op("0", lambda: df.oracle.certify_frontier(hp, hq, df.Alpha.finite(2.0), "exclusive", curve, m=10))
    finally:
        restore()
    summary = spans.summarize(tracer.spans)
    assert summary["oracle.pareto_filter"]["calls"] == 1
    assert summary["discrete_frontier.pareto_filter"]["calls"] == 1
    assert summary["oracle.certify_frontier"]["calls"] == 1
    assert tracer.counters["oracle.enumerate_simplex.points"] == 66
    assert tracer.counters["distributions.Histogram.calls"] >= 21
    assert (df.oracle.pareto_filter, df.discrete_frontier.pareto_filter, df.Histogram.__post_init__) == before
