"""Command-line surface.

Every command writes its results to files (never to stdout) together with
a ``<output>.manifest.json`` recording the effective configuration, so runs
are reproducible byte for byte given the same inputs and seed. Defaults
applied for unset parameters are logged to stderr. A command computes all
its results before it writes the first file, so a failing one writes none.

Exit codes: 0 success, 1 invalid parameters, 2 parse error,
3 dimension mismatch, 4 divergence undefined.
"""
from __future__ import annotations

import argparse
import logging
import math
import sys
from contextlib import contextmanager
from dataclasses import asdict
from pathlib import Path

from . import __version__
from .discrete_frontier import EXCLUSIVE, INCLUSIVE, frontier, prd_from_infinity_frontier
from .distributions import Alpha, GaussianParams, Histogram, require_distinct_orders
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
    json_text,
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
# the optional flags, by destination; main fills an unset one from DEFAULTS
OPTIONS = {
    "side": {"choices": [EXCLUSIVE, INCLUSIVE]},
    "grid_size": {"type": int},
    "ridge": {"type": float},
    "knn_k": {"type": int},
    "m": {"type": int, "help": "simplex grid denominator"},
}


@contextmanager
def _manifest(args, config: dict, output=None):
    """Around a command's writes: record the command, version and effective
    config in <output>.manifest.json once they succeed; output is --output
    unless given. The manifest is encoded before the first write, so a config
    value that JSON cannot hold fails the command before it writes a file."""
    text = json_text({"command": args.command, "version": __version__, "config": config})
    yield
    Path(f"{args.output if output is None else output}.manifest.json").write_text(text)


def _load_inputs(args, fit: bool = False) -> tuple[Histogram | GaussianParams, Histogram | GaussianParams]:
    """--p and --q, each read once as a distribution spec. With fit, a path
    not ending in .json is a samples CSV, fitted with --ridge only after each
    spec is checked to be a Gaussian (unless both are histograms)."""
    paths = (args.p, args.q)
    dists = [None if fit and not path.endswith(".json") else load_distribution(path) for path in paths]
    if fit and not all(isinstance(d, Histogram) for d in dists):
        for path, dist in zip(paths, dists):
            if isinstance(dist, Histogram):
                raise ParameterError(f"{path}: expected a gaussian spec")
        dists = [fit_gaussian(load_samples_csv(path), args.ridge) if d is None else d for path, d in zip(paths, dists)]
    return tuple(dists)


def _load_histograms(args) -> tuple[Histogram, Histogram]:
    p, q = _load_inputs(args)
    if not (isinstance(p, Histogram) and isinstance(q, Histogram)):
        raise ParameterError(f"{args.command} requires histogram specs")
    return p, q


def _cmd_fit(args) -> None:
    g = fit_gaussian(load_samples_csv(args.samples), args.ridge)
    with _manifest(args, {"samples": args.samples, "ridge": args.ridge}):
        write_json(distribution_to_json(g), args.output)


def _cmd_frontier(args) -> None:
    alphas = [Alpha.parse(a) for a in args.alpha]
    if not alphas:
        raise ParameterError("at least one --alpha is required")
    require_distinct_orders(alphas, "--alpha")
    p, q = _load_inputs(args, fit=True)
    discrete = isinstance(p, Histogram) and isinstance(q, Histogram)
    if discrete:
        curves = [frontier(p, q, alpha, args.side, args.grid_size) for alpha in alphas]
    else:
        if not all(alpha.is_one for alpha in alphas):
            raise ParameterError("continuous frontiers are only available at alpha=1 (KL)")
        curves = [frontier_kl(p, q, args.side, args.grid_size)] * len(alphas)
    out = Path(args.output)
    paths = [out] if len(alphas) == 1 else [out.with_name(f"{out.stem}_alpha{a}{out.suffix}") for a in alphas]
    config = {
        "p": args.p,
        "q": args.q,
        "alphas": [str(a) for a in alphas],
        "side": args.side,
        "grid_size": args.grid_size,
        "ridge": args.ridge,
        "outputs": [str(path) for path in paths],
    }
    with _manifest(args, config):
        for curve, path in zip(curves, paths):
            write_frontier_csv(curve, path, flip_lambda=not discrete)


def _cmd_prd(args) -> None:
    p, q = _load_histograms(args)
    prd = prd_from_infinity_frontier(frontier(p, q, Alpha.infinity(), EXCLUSIVE, args.grid_size))
    with _manifest(args, {"p": args.p, "q": args.q, "grid_size": args.grid_size}):
        write_prd_csv(prd, args.output)


def _cmd_endpoints(args) -> None:
    p, q = _load_inputs(args, fit=True)
    if isinstance(p, Histogram):  # then both are
        raise ParameterError(f"{args.p}: expected a gaussian spec")
    precision_loss, recall_loss = kl_endpoints(p, q)
    with _manifest(args, {"p": args.p, "q": args.q, "ridge": args.ridge}):
        Path(args.output).write_text("precision_loss,recall_loss\n" + f"{precision_loss!r},{recall_loss!r}\n")


def _cmd_knn(args) -> None:
    precision, recall = knn_support_metrics(load_samples_csv(args.p), load_samples_csv(args.q), args.knn_k)
    with _manifest(args, {"p": args.p, "q": args.q, "knn_k": args.knn_k}):
        write_json({"precision": precision, "recall": recall, "k": args.knn_k}, args.output)


def _cmd_oracle_check(args) -> None:
    alpha = Alpha.parse(args.alpha)
    p, q = _load_histograms(args)
    curve = frontier(p, q, alpha, args.side, args.grid_size)
    verdict = certify_frontier(p, q, alpha, args.side, curve, m=args.m)
    config = {"p": args.p, "q": args.q, "alpha": str(alpha), "side": args.side, "m": args.m, "grid_size": args.grid_size}
    with _manifest(args, config):
        write_json(verdict, args.output)


def _cmd_pipeline(args) -> None:
    if args.config:
        config = load_pipeline_config(args.config)
    else:
        config = PipelineConfig()
        log.info("using default pipeline config %s", config)
    report = evaluate_pipeline(load_samples_csv(args.p), load_samples_csv(args.q), config)
    report_text = json_text(
        {
            "gaussian_p": distribution_to_json(report.gaussian_p),
            "gaussian_q": distribution_to_json(report.gaussian_q),
            "precision_loss": report.precision_loss,
            "recall_loss": report.recall_loss,
            "histogram_p": [float(v) for v in report.histogram_p.probs],
            "histogram_q": [float(v) for v in report.histogram_q.probs],
            "knn_precision": report.knn_precision,
            "knn_recall": report.knn_recall,
        }
    )
    cfg = asdict(config)
    cfg["alphas"] = [str(a) for a in config.alphas]
    outdir = Path(args.output)
    with _manifest(args, {"p": args.p, "q": args.q, **cfg}, outdir / "report.json"):
        outdir.mkdir(parents=True, exist_ok=True)
        write_frontier_csv(report.kl_frontier, outdir / "kl_frontier.csv", flip_lambda=True)
        for name, curve in report.discrete_frontiers.items():
            write_frontier_csv(curve, outdir / f"frontier_alpha{name}.csv")
        write_prd_csv(report.prd, outdir / "prd.csv")
        (outdir / "report.json").write_text(report_text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="divfrontier",
        description="Precision-recall divergence frontiers between distributions",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    inputs = argparse.ArgumentParser(add_help=False)
    inputs.add_argument("--p", required=True, help="distribution JSON, or samples CSV where the command takes one")
    inputs.add_argument("--q", required=True, help="in the same form as --p")
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--output", required=True, help="output file; for pipeline, a directory")

    def command(name, func, summary, options=(), parents=(inputs,)):
        cmd = sub.add_parser(name, help=summary, parents=[*parents, output])
        for dest in options:
            cmd.add_argument("--" + dest.replace("_", "-"), dest=dest, **OPTIONS[dest])
        cmd.set_defaults(func=func)
        return cmd

    command("fit", _cmd_fit, "fit a Gaussian to sample embeddings", ["ridge"], parents=()).add_argument(
        "--samples", required=True
    )
    command(
        "frontier", _cmd_frontier, "compute a divergence frontier CSV", ["side", "grid_size", "ridge"]
    ).add_argument("--alpha", action="append", default=[], help="0, 1, inf or a positive decimal; repeatable")
    command("prd", _cmd_prd, "precision-recall curve from histogram specs", ["grid_size"])
    command("endpoints", _cmd_endpoints, "KL frontier endpoints (precision/recall losses)", ["ridge"])
    command("knn", _cmd_knn, "kNN support-overlap precision/recall", ["knn_k"])
    command(
        "oracle-check", _cmd_oracle_check, "certify a frontier against the simplex grid", ["side", "grid_size", "m"]
    ).add_argument("--alpha", required=True)
    command("pipeline", _cmd_pipeline, "full evaluation from two sample CSVs").add_argument(
        "--config", help="pipeline config JSON"
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(name)s: %(message)s", stream=sys.stderr)
    args = build_parser().parse_args(argv)
    for name, value in DEFAULTS.items():
        if getattr(args, name, value) is None:  # a flag of this command, left unset
            log.info("using default %s=%s", name, value)
            setattr(args, name, value)
    try:
        # --ridge reaches only samples CSVs; check it here, whatever the inputs
        if not 0 <= getattr(args, "ridge", 0) < math.inf:
            raise ParameterError(f"ridge must be finite and nonnegative, got {args.ridge}")
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
