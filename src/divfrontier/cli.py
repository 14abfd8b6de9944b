"""Command-line surface.

Every command writes its results to files (never to stdout) together with
a ``<output>.manifest.json`` recording the effective configuration, so runs
are reproducible byte for byte given the same inputs and seed. Defaults
applied for unset parameters are logged to stderr.

Exit codes: 0 success, 1 invalid parameters, 2 parse error,
3 dimension mismatch, 4 divergence undefined.
"""
from __future__ import annotations

import argparse
import logging
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from .discrete_frontier import EXCLUSIVE, INCLUSIVE, frontier, prd_from_infinity_frontier
from .distributions import Alpha, GaussianParams, Histogram
from .errors import (
    DimensionError,
    DivergenceUndefinedError,
    DivFrontierError,
    ParameterError,
    ParseError,
)
from .estimation import PipelineConfig, evaluate_pipeline, fit_gaussian, knn_support_metrics
from .expfam_frontier import frontier_kl, kl_endpoints
from .io import (
    distribution_to_json,
    load_distribution,
    load_pipeline_config,
    load_samples_csv,
    write_frontier_csv,
    write_json,
    write_prd_csv,
)
from .oracle import certify_frontier

log = logging.getLogger("divfrontier")

_PIPELINE_DEFAULTS = PipelineConfig()
DEFAULTS = {
    "grid_size": _PIPELINE_DEFAULTS.grid_size,
    "ridge": _PIPELINE_DEFAULTS.ridge,
    "knn_k": _PIPELINE_DEFAULTS.knn_k,
    "side": EXCLUSIVE,
    "m": 60,
}


def _resolve(args: argparse.Namespace, name: str):
    value = getattr(args, name, None)
    if value is None:
        value = DEFAULTS[name]
        log.info("using default %s=%s", name, value)
    return value


def _write_manifest(output: Path, command: str, config: dict) -> None:
    write_json(
        {"command": command, "version": __version__, "config": config},
        Path(str(output) + ".manifest.json"),
    )


def _load_gaussian_input(path: str, ridge: float) -> GaussianParams:
    """A Gaussian from either a JSON spec or a samples CSV (fitted)."""
    if path.endswith(".json"):
        dist = load_distribution(path)
        if not isinstance(dist, GaussianParams):
            raise ParameterError(f"{path}: expected a gaussian spec")
        return dist
    return fit_gaussian(load_samples_csv(path), ridge)


def _cmd_fit(args) -> None:
    ridge = _resolve(args, "ridge")
    g = fit_gaussian(load_samples_csv(args.samples), ridge)
    out = Path(args.output)
    write_json(distribution_to_json(g), out)
    _write_manifest(out, "fit", {"samples": args.samples, "ridge": ridge})


def _cmd_frontier(args) -> None:
    grid_size = _resolve(args, "grid_size")
    side = _resolve(args, "side")
    ridge = _resolve(args, "ridge")
    alphas = [Alpha.parse(a) for a in args.alpha]
    if not alphas:
        raise ParameterError("at least one --alpha is required")
    p = load_distribution(args.p) if args.p.endswith(".json") else None
    q = load_distribution(args.q) if args.q.endswith(".json") else None
    out = Path(args.output)
    written = []
    for alpha in alphas:
        if isinstance(p, Histogram) and isinstance(q, Histogram):
            curve = frontier(p, q, alpha, side, grid_size)
            flip = False
        else:
            gp = p if isinstance(p, GaussianParams) else _load_gaussian_input(args.p, ridge)
            gq = q if isinstance(q, GaussianParams) else _load_gaussian_input(args.q, ridge)
            if not alpha.is_one:
                raise ParameterError(
                    "continuous frontiers are only available at alpha=1 (KL)"
                )
            curve = frontier_kl(gp, gq, side, grid_size)
            flip = True
        path = out if len(alphas) == 1 else out.with_name(f"{out.stem}_alpha{alpha}{out.suffix}")
        write_frontier_csv(curve, path, flip_lambda=flip)
        written.append(str(path))
    _write_manifest(
        out,
        "frontier",
        {
            "p": args.p,
            "q": args.q,
            "alphas": [str(a) for a in alphas],
            "side": side,
            "grid_size": grid_size,
            "outputs": written,
        },
    )


def _cmd_prd(args) -> None:
    grid_size = _resolve(args, "grid_size")
    p = load_distribution(args.p)
    q = load_distribution(args.q)
    if not (isinstance(p, Histogram) and isinstance(q, Histogram)):
        raise ParameterError("prd requires histogram specs")
    curve = frontier(p, q, Alpha.infinity(), EXCLUSIVE, grid_size)
    prd = prd_from_infinity_frontier(curve)
    out = Path(args.output)
    write_prd_csv(prd, out)
    _write_manifest(out, "prd", {"p": args.p, "q": args.q, "grid_size": grid_size})


def _cmd_endpoints(args) -> None:
    ridge = _resolve(args, "ridge")
    gp = _load_gaussian_input(args.p, ridge)
    gq = _load_gaussian_input(args.q, ridge)
    precision_loss, recall_loss = kl_endpoints(gp, gq)
    out = Path(args.output)
    out.write_text(
        "precision_loss,recall_loss\n" + f"{precision_loss!r},{recall_loss!r}\n"
    )
    _write_manifest(out, "endpoints", {"p": args.p, "q": args.q, "ridge": ridge})


def _cmd_knn(args) -> None:
    knn_k = _resolve(args, "knn_k")
    sp = load_samples_csv(args.p)
    sq = load_samples_csv(args.q)
    precision, recall = knn_support_metrics(sp, sq, knn_k)
    out = Path(args.output)
    write_json({"precision": precision, "recall": recall, "k": knn_k}, out)
    _write_manifest(out, "knn", {"p": args.p, "q": args.q, "knn_k": knn_k})


def _cmd_oracle_check(args) -> None:
    grid_size = _resolve(args, "grid_size")
    side = _resolve(args, "side")
    m = _resolve(args, "m")
    alpha = Alpha.parse(args.alpha)
    p = load_distribution(args.p)
    q = load_distribution(args.q)
    if not (isinstance(p, Histogram) and isinstance(q, Histogram)):
        raise ParameterError("oracle-check requires histogram specs")
    curve = frontier(p, q, alpha, side, grid_size)
    verdict = certify_frontier(p, q, alpha, side, curve, m=m)
    out = Path(args.output)
    write_json(verdict, out)
    _write_manifest(
        out,
        "oracle-check",
        {"p": args.p, "q": args.q, "alpha": str(alpha), "side": side, "m": m, "grid_size": grid_size},
    )


def _cmd_pipeline(args) -> None:
    if args.config:
        config = load_pipeline_config(args.config)
    else:
        config = PipelineConfig()
        log.info("using default pipeline config %s", config)
    sp = load_samples_csv(args.p)
    sq = load_samples_csv(args.q)
    report = evaluate_pipeline(sp, sq, config)
    outdir = Path(args.output)
    outdir.mkdir(parents=True, exist_ok=True)
    write_frontier_csv(report.kl_frontier, outdir / "kl_frontier.csv", flip_lambda=True)
    for name, curve in report.discrete_frontiers.items():
        write_frontier_csv(curve, outdir / f"frontier_alpha{name}.csv")
    write_prd_csv(report.prd, outdir / "prd.csv")
    write_json(
        {
            "gaussian_p": distribution_to_json(report.gaussian_p),
            "gaussian_q": distribution_to_json(report.gaussian_q),
            "precision_loss": report.precision_loss,
            "recall_loss": report.recall_loss,
            "histogram_p": [float(v) for v in report.histogram_p.probs],
            "histogram_q": [float(v) for v in report.histogram_q.probs],
            "knn_precision": report.knn_precision,
            "knn_recall": report.knn_recall,
        },
        outdir / "report.json",
    )
    cfg = asdict(config)
    cfg["alphas"] = [str(a) for a in config.alphas]
    _write_manifest(outdir / "report.json", "pipeline", {"p": args.p, "q": args.q, **cfg})


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="divfrontier",
        description="Precision-recall divergence frontiers between distributions",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    fit = sub.add_parser("fit", help="fit a Gaussian to sample embeddings")
    fit.add_argument("--samples", required=True)
    fit.add_argument("--ridge", type=float)
    fit.add_argument("--output", required=True)
    fit.set_defaults(func=_cmd_fit)

    fr = sub.add_parser("frontier", help="compute a divergence frontier CSV")
    fr.add_argument("--p", required=True, help="distribution JSON or samples CSV")
    fr.add_argument("--q", required=True)
    fr.add_argument("--alpha", action="append", default=[], help="0, 1, inf or a positive decimal; repeatable")
    fr.add_argument("--side", choices=[EXCLUSIVE, INCLUSIVE])
    fr.add_argument("--grid-size", dest="grid_size", type=int)
    fr.add_argument("--ridge", type=float)
    fr.add_argument("--output", required=True)
    fr.set_defaults(func=_cmd_frontier)

    prd = sub.add_parser("prd", help="precision-recall curve from histogram specs")
    prd.add_argument("--p", required=True)
    prd.add_argument("--q", required=True)
    prd.add_argument("--grid-size", dest="grid_size", type=int)
    prd.add_argument("--output", required=True)
    prd.set_defaults(func=_cmd_prd)

    ep = sub.add_parser("endpoints", help="KL frontier endpoints (precision/recall losses)")
    ep.add_argument("--p", required=True, help="gaussian JSON or samples CSV")
    ep.add_argument("--q", required=True)
    ep.add_argument("--ridge", type=float)
    ep.add_argument("--output", required=True)
    ep.set_defaults(func=_cmd_endpoints)

    knn = sub.add_parser("knn", help="kNN support-overlap precision/recall")
    knn.add_argument("--p", required=True)
    knn.add_argument("--q", required=True)
    knn.add_argument("--knn-k", dest="knn_k", type=int)
    knn.add_argument("--output", required=True)
    knn.set_defaults(func=_cmd_knn)

    oc = sub.add_parser("oracle-check", help="certify a frontier against the simplex grid")
    oc.add_argument("--p", required=True)
    oc.add_argument("--q", required=True)
    oc.add_argument("--alpha", required=True)
    oc.add_argument("--side", choices=[EXCLUSIVE, INCLUSIVE])
    oc.add_argument("--grid-size", dest="grid_size", type=int)
    oc.add_argument("--m", type=int, help="simplex grid denominator")
    oc.add_argument("--output", required=True)
    oc.set_defaults(func=_cmd_oracle_check)

    pipe = sub.add_parser("pipeline", help="full evaluation from two sample CSVs")
    pipe.add_argument("--p", required=True)
    pipe.add_argument("--q", required=True)
    pipe.add_argument("--config", help="pipeline config JSON")
    pipe.add_argument("--output", required=True, help="output directory")
    pipe.set_defaults(func=_cmd_pipeline)

    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(name)s: %(message)s", stream=sys.stderr)
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
    except ParseError as exc:
        log.error("parse error: %s", exc)
        return 2
    except DimensionError as exc:
        log.error("dimension mismatch: %s", exc)
        return 3
    except DivergenceUndefinedError as exc:
        log.error("divergence undefined: %s", exc)
        return 4
    except DivFrontierError as exc:
        log.error("%s", exc)
        return 1
    except OSError as exc:  # io turns read failures into ParseError, so this is a write
        log.error("cannot write output %s: %s", args.output, exc)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
