"""The four workloads: seeded inputs, the operations run on them, and the
check each operation's output must pass.

Every input comes from ``numpy.random.default_rng([seed, stream])``, so one
seed always gives byte-identical inputs; their SHA-256 is recorded with the
results. The program sees only the generated inputs.
"""
from __future__ import annotations

import csv
import hashlib
import json
import os
import pickle
import shutil
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import reference as ref

GRID = 201
INF = float("inf")
EMBED_PAIRS = 5  # distinct input pairs per pass: Lloyd iterations and the kNN
# search radius vary with the data (one pair's op time moves ~10% between
# seeds), so several pairs per run keep the spread of a run's median down
# one mixture for every seed: a layout drawn per seed moves the kNN radius,
# and the op time with it, by tens of percent
MODES_LAYOUT = 6.0 * np.random.default_rng(20190525).standard_normal((10, 4))
SWEEP_ALPHAS = [(a, side) for a in (0.5, 1.0, 2.0, 1e4) for side in ("exclusive", "inclusive")]
SWEEP_ALPHAS.append((INF, "exclusive"))  # alpha = inf exists on the exclusive side only
CERTIFY_SIZES = ((3, 60), (4, 60), (5, 40))  # (bins, simplex grid denominator)


@dataclass
class Op:
    """One timed operation.

    ``run`` is the timed call. ``verify`` runs outside the timed interval
    and returns (error or None, digest); repeats of an op with the same
    ``key`` must give the same digest.
    """

    key: str
    run: Callable[[], object]
    verify: Callable[[object], tuple[str | None, str]]


@dataclass
class Prepared:
    """A workload's ops for one seed. The pass ends by repeating its first
    op, whose output must then be identical."""

    ops: list[Op]
    input_sha256: str


def rng_for(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def in_child(func):
    """Return func() computed in a forked child process.

    The references are computed this way so that the memory they peak at
    is not part of the benchmark process's ``peak_rss_mb``; only the
    pickled result comes back.
    """
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(read_fd)
            with os.fdopen(write_fd, "wb") as fh:
                pickle.dump(func(), fh)
            code = 0
        except BaseException:
            traceback.print_exc()
        finally:
            sys.stderr.flush()
            os._exit(code)
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as fh:
        data = fh.read()
    _, status = os.waitpid(pid, 0)
    if status != 0:
        raise RuntimeError(f"reference child exited with status {status}")
    return pickle.loads(data)


def _sha(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for c in chunks:
        h.update(c)
    return h.hexdigest()


# ------------------------------------------------------------------ inputs

def embed_d64_pair(rng):
    p = rng.standard_normal((2000, 64))
    q = 0.8 * rng.standard_normal((2000, 64)) + 0.3
    return p, q


def embed_modes_d4_pair(rng):
    """Q keeps 7 of P's 10 modes, each tighter: mode dropping."""
    p = MODES_LAYOUT[rng.integers(10, size=10_000)] + rng.standard_normal((10_000, 4))
    q = MODES_LAYOUT[rng.integers(7, size=10_000)] + 0.7 * rng.standard_normal((10_000, 4))
    return p, q


def sweep_histograms(rng):
    """12 Dirichlet pairs, 3 per size; the third of each size has ~15% zero
    bins in p and another ~15% in q, so q vanishes on part of p's support."""
    pairs = []
    for n in (8, 20, 64, 256):
        for i in range(3):
            p = rng.dirichlet(np.ones(n))
            q = rng.dirichlet(np.ones(n))
            if i == 2:
                z = max(1, round(0.15 * n))
                idx = rng.permutation(n)[: 2 * z]
                p[idx[:z]] = 0.0
                q[idx[z:]] = 0.0
            pairs.append((p, q))
    return pairs


def sweep_gaussians(rng):
    def one(d):
        w = rng.standard_normal((d, d))
        return 0.3 * rng.standard_normal(d), w @ w.T / d + 0.5 * np.eye(d)

    return [(d, one(d), one(d)) for d in (16, 64, 128)]


def certify_pairs(rng):
    return [(rng.uniform(0.15, 1.0, n), rng.uniform(0.15, 1.0, n), m) for n, m in CERTIFY_SIZES]


# -------------------------------------------------------------- workloads

def _write_samples(path: Path, x: np.ndarray) -> bytes:
    lines = "\n".join(",".join("%.17g" % v for v in row) for row in x) + "\n"
    data = lines.encode()
    path.write_bytes(data)
    return data


def _read_pairs(path: Path) -> np.ndarray:
    with path.open(newline="") as fh:
        return np.array(list(csv.reader(fh))[1:], dtype=float)


def _tree_digest(path: Path) -> str:
    h = hashlib.sha256()
    for f in sorted(path.iterdir()):
        h.update(f.name.encode() + b"\0" + f.read_bytes())
    return h.hexdigest()


def _prd_reference_points(front_xy: np.ndarray) -> np.ndarray:
    """(recall, precision) maximal pairs of exp(-frontier); a pair with a
    zero coordinate is realizable only as (0, 0)."""
    pr = np.exp(-front_xy)
    pr[(pr == 0.0).any(axis=1)] = 0.0
    return -ref.pareto_min(-pr)


def _embed_estimates(p, q) -> dict:
    """The reference's Gaussian fits, histograms and kNN coverage."""
    cp, cq = ref.quantize_counts(p, q, 20, 0)
    return {
        "gaussians": (*ref.fit_gaussian(p, 1e-6), *ref.fit_gaussian(q, 1e-6)),
        "histograms": (ref.smoothed_histogram(cp), ref.smoothed_histogram(cq)),
        "knn": (ref.fraction_covered(p, q, 3), ref.fraction_covered(q, p, 3)),
    }


def _embed_expected(p, q):
    """What ``pipeline`` must write for one input pair, from the reference."""
    est = in_child(lambda: _embed_estimates(p, q))
    mp, cp, mq, cq = est["gaussians"]
    hp, hq = est["histograms"]
    inf_at = lambda lams: ref.discrete_frontier_values(hp, hq, INF, "exclusive", lams)
    inf_grid = ref.lambda_grid(hp, hq, INF, GRID)
    return {
        "gaussians": (mp, cp, mq, cq),
        "precision_loss": ref.kl_gaussian(mq, cq, mp, cp),
        "recall_loss": ref.kl_gaussian(mp, cp, mq, cq),
        "histogram_p": hp.tolist(),
        "histogram_q": hq.tolist(),
        "knn_precision": est["knn"][0],
        "knn_recall": est["knn"][1],
        # file -> (values at package lambdas, reference grid)
        "curves": {
            # KL curves run from Q (lambda 0) to P; the CSV flips lambda
            "kl_frontier.csv": (
                lambda lams: ref.gaussian_kl_frontier_values(mp, cp, mq, cq, "exclusive", 1.0 - lams),
                np.linspace(0.0, 1.0, GRID),
            ),
            "frontier_alpha1.csv": (
                lambda lams: ref.discrete_frontier_values(hp, hq, 1.0, "exclusive", lams),
                np.linspace(0.0, 1.0, GRID),
            ),
            "frontier_alphainf.csv": (inf_at, inf_grid),
        },
        "prd": _prd_reference_points(ref.pareto_min(inf_at(inf_grid))),
    }


def _check_report(report: dict, exp: dict) -> str | None:
    for key in ("histogram_p", "histogram_q", "knn_precision", "knn_recall"):
        if report[key] != exp[key]:
            return f"report.json {key} differs from the reference"
    mp, cp, mq, cq = exp["gaussians"]
    floats = {
        "gaussian_p.mean": (report["gaussian_p"]["mean"], mp),
        "gaussian_p.cov": (report["gaussian_p"]["cov"], cp),
        "gaussian_q.mean": (report["gaussian_q"]["mean"], mq),
        "gaussian_q.cov": (report["gaussian_q"]["cov"], cq),
        "precision_loss": (report["precision_loss"], exp["precision_loss"]),
        "recall_loss": (report["recall_loss"], exp["recall_loss"]),
    }
    for key, (got, want) in floats.items():
        if not ref.close(got, want).all():
            return f"report.json {key} differs from the reference by more than {ref.TOL:g}"
    return None


def _embed_verify(outdir: Path, exp: dict):
    def verify(code):
        try:
            if code != 0:
                return f"pipeline exited with code {code}", ""
            digest = _tree_digest(outdir)
            err = _check_report(json.loads((outdir / "report.json").read_text()), exp)
            for name, (values_at, grid) in exp["curves"].items():
                if err is None:
                    miss = ref.curve_mismatch(_read_pairs(outdir / name), values_at, grid)
                    err = miss and f"{name}: {miss}"
            if err is None:
                gap = ref.hausdorff_linf(_read_pairs(outdir / "prd.csv"), exp["prd"])
                if gap > ref.TOL:
                    err = f"prd.csv is {gap:.3g} from the reference PRD"
            return err, digest
        finally:
            shutil.rmtree(outdir, ignore_errors=True)

    return verify


def _embed(make_pair):
    def prepare(seed: int, workdir: Path, df) -> Prepared:
        ops, inputs = [], hashlib.sha256()
        for i in range(EMBED_PAIRS):
            p, q = make_pair(rng_for(seed, i))
            pair_dir = workdir / f"pair{i}"
            pair_dir.mkdir(parents=True)
            p_csv, q_csv, outdir = pair_dir / "p.csv", pair_dir / "q.csv", pair_dir / "out"
            inputs.update(_write_samples(p_csv, p))
            inputs.update(_write_samples(q_csv, q))
            argv = ["pipeline", "--p", str(p_csv), "--q", str(q_csv), "--output", str(outdir)]
            ops.append(Op(f"pair{i}", lambda argv=argv: df.cli.main(argv), _embed_verify(outdir, _embed_expected(p, q))))
        return Prepared(ops + ops[:1], inputs.hexdigest())

    return prepare


def _sweep(seed: int, workdir: Path, df) -> Prepared:
    rng = rng_for(seed, 0)
    hists = sweep_histograms(rng)
    gaussians = sweep_gaussians(rng)
    D, E = df.discrete_frontier, df.expfam_frontier
    ops = []
    for i, (p_raw, q_raw) in enumerate(hists):
        hp, hq = df.Histogram(p_raw), df.Histogram(q_raw)
        p, q = hp.probs, hq.probs
        full_support = bool((p > 0).all() and (q > 0).all())
        for a, side in SWEEP_ALPHAS:
            alpha = df.Alpha.parse(a)
            values_at = lambda lams, a=a, side=side, p=p, q=q: ref.discrete_frontier_values(p, q, a, side, lams)
            grid = ref.lambda_grid(p, q, a, GRID)
            if a == INF:
                def run(hp=hp, hq=hq, alpha=alpha):
                    curve = D.frontier(hp, hq, alpha, "exclusive", GRID)
                    return curve, D.prd_from_infinity_frontier(curve)

                want_prd = _prd_reference_points(ref.pareto_min(values_at(grid)))
                pkg_prd = D.prd_reference(hp, hq, GRID).points if full_support else None
            else:
                def run(hp=hp, hq=hq, alpha=alpha, side=side):
                    return D.frontier(hp, hq, alpha, side, GRID), None

                want_prd = pkg_prd = None

            def verify(out, values_at=values_at, grid=grid, want_prd=want_prd, pkg_prd=pkg_prd):
                curve, prd = out
                err = ref.curve_mismatch(curve.points, values_at, grid)
                if err is None and prd is not None:
                    got = [(r, pr) for pr, r in prd.points]
                    if ref.hausdorff_linf(got, want_prd) > ref.TOL:
                        err = "PRD differs from exp(-frontier) of the reference"
                    elif pkg_prd is not None and ref.hausdorff_linf(prd.points, pkg_prd) > ref.TOL:
                        err = f"PRD differs from prd_reference by more than {ref.TOL:g}"
                return err, repr((curve.points, prd and prd.points))

            ops.append(Op(f"hist{i}-alpha{a}-{side}", run, verify))
    for d, (mp, cp), (mq, cq) in gaussians:
        gp, gq = df.GaussianParams(mp, cp), df.GaussianParams(mq, cq)
        kl_pq, kl_qp = df.divergences.kl_gaussian(gp, gq), df.divergences.kl_gaussian(gq, gp)
        for side in ("exclusive", "inclusive"):
            # endpoint (div_p at div_q = 0, div_q at div_p = 0)
            ends = (kl_qp, kl_pq) if side == "exclusive" else (kl_pq, kl_qp)
            values_at = lambda lams, side=side, g=(mp, cp, mq, cq): ref.gaussian_kl_frontier_values(*g, side, lams)

            def verify(curve, values_at=values_at, ends=ends):
                err = ref.curve_mismatch(curve.points, values_at, np.linspace(0.0, 1.0, GRID))
                if err is None:
                    pts = np.asarray(curve.points)
                    got = (pts[np.argmin(pts[:, 2]), 1], pts[np.argmin(pts[:, 1]), 2])
                    if not ref.close(got, ends).all():
                        err = f"KL endpoints {got} differ from kl_gaussian {ends}"
                return err, repr(curve.points)

            ops.append(Op(f"gauss{d}-{side}", lambda gp=gp, gq=gq, side=side: E.frontier_kl(gp, gq, side, GRID), verify))
    chunks = [a.tobytes() for pair in hists for a in pair]
    chunks += [a.tobytes() for _, g1, g2 in gaussians for a in (*g1, *g2)]
    return Prepared(ops + ops[:1], _sha(*chunks))


def _certify(seed: int, workdir: Path, df) -> Prepared:
    pairs = certify_pairs(rng_for(seed, 0))
    cases = [(a, side) for a in (0.5, 1.0, 2.0) for side in ("exclusive", "inclusive")]
    fronts = in_child(lambda: [[ref.grid_front(p, q, a, side, m) for a, side in cases] for p, q, m in pairs])
    ops = []
    for (p_raw, q_raw, m), pair_fronts in zip(pairs, fronts):
        hp, hq = df.Histogram(p_raw), df.Histogram(q_raw)
        p, q = p_raw / p_raw.sum(), q_raw / q_raw.sum()
        for (a, side), front in zip(cases, pair_fronts):
            alpha = df.Alpha.parse(a)

            def run(hp=hp, hq=hq, alpha=alpha, side=side, m=m):
                curve = df.discrete_frontier.frontier(hp, hq, alpha, side, GRID)
                return curve, df.oracle.certify_frontier(hp, hq, alpha, side, curve, m=m)

            values_at = lambda lams, a=a, side=side, p=p, q=q: ref.discrete_frontier_values(p, q, a, side, lams)

            def verify(out, values_at=values_at, grid=ref.lambda_grid(p, q, a, GRID), front=front, m=m):
                curve, verdict = out
                err = ref.curve_mismatch(curve.points, values_at, grid)
                if err is None:
                    want = ref.certify_numbers([(x, y) for _, x, y in curve.points], front)
                    got = (verdict["max_dominance_violation"], verdict["hausdorff_distance"])
                    if not ref.close(got, want).all():
                        err = f"oracle (violation, Hausdorff) {got} differ from the reference {want}"
                    elif not (verdict["pass"] is True and want[0] <= 2.0 / m and want[1] <= 5.0 / m):
                        # the oracle's tolerances: violation 2/m, Hausdorff 5/m
                        err = f"oracle verdict {verdict} at m={m}"
                return err, repr((curve.points, sorted(verdict.items())))

            ops.append(Op(f"n{len(p_raw)}-alpha{a}-{side}", run, verify))
    return Prepared(ops + ops[:1], _sha(*(a.tobytes() for p, q, _ in pairs for a in (p, q))))


WORKLOADS = {
    "embed-d64": _embed(embed_d64_pair),
    "embed-modes-d4": _embed(embed_modes_d4_pair),
    "frontier-sweep": _sweep,
    "certify": _certify,
}
