"""File formats: JSON distribution specs, sample CSVs, frontier/PRD CSVs.

JSON numbers are IEEE-754 doubles in decimal; +inf is serialized as the
string "inf" (JSON has no infinity literal). Sample CSVs carry no header,
one embedding vector per row. Frontier CSVs have the header
``lambda,loss_recall,loss_precision`` and PRD CSVs ``recall,precision``,
rows ascending in the first column.
"""
from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

from .discrete_frontier import FrontierCurve, PRDCurve
from .distributions import GaussianParams, Histogram
from .errors import ParseError
from .estimation import PipelineConfig
from .distributions import Alpha


def _encode_number(x: float):
    return "inf" if math.isinf(x) else float(x)


def _decode_number(x) -> float:
    if isinstance(x, str):
        if x.strip().lower() == "inf":
            return float("inf")
        raise ParseError(f"unexpected string value {x!r} where a number was expected")
    return float(x)


def _load_json(path: Path):
    try:
        return json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ParseError(exc.msg, path=str(path), line=exc.lineno) from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read file: {exc}", path=str(path)) from exc


def load_distribution(path) -> Histogram | GaussianParams:
    """Read a {"type": "histogram"|"gaussian", ...} JSON spec."""
    path = Path(path)
    spec = _load_json(path)
    if not isinstance(spec, dict) or "type" not in spec:
        raise ParseError("distribution spec must be an object with a 'type' key", path=str(path))
    kind = spec["type"]
    try:
        if kind == "histogram":
            return Histogram(np.array([_decode_number(v) for v in spec["probs"]]))
        if kind == "gaussian":
            mean = np.array([_decode_number(v) for v in spec["mean"]])
            cov = np.array([[_decode_number(v) for v in row] for row in spec["cov"]])
            return GaussianParams(mean, cov)
    except KeyError as exc:
        raise ParseError(f"missing key {exc.args[0]!r} in {kind} spec", path=str(path)) from exc
    except (TypeError, ValueError) as exc:
        # a scalar where a list belongs, or a ragged matrix
        raise ParseError(f"malformed {kind} spec: {exc}", path=str(path)) from exc
    raise ParseError(f"unknown distribution type {kind!r}", path=str(path))


def distribution_to_json(dist: Histogram | GaussianParams) -> dict:
    if isinstance(dist, Histogram):
        return {"type": "histogram", "probs": [float(v) for v in dist.probs]}
    return {
        "type": "gaussian",
        "mean": [float(v) for v in dist.mean],
        "cov": [[float(v) for v in row] for row in dist.cov],
    }


def load_samples_csv(path) -> np.ndarray:
    """Headerless CSV of embedding vectors, one per row."""
    path = Path(path)
    rows: list[list[float]] = []
    width = None
    try:
        with path.open(newline="") as fh:
            for lineno, row in enumerate(csv.reader(fh), start=1):
                if not row:
                    continue
                try:
                    values = [float(v) for v in row]
                except ValueError as exc:
                    raise ParseError(f"non-numeric value: {exc}", path=str(path), line=lineno) from exc
                if width is None:
                    width = len(values)
                elif len(values) != width:
                    raise ParseError(
                        f"row has {len(values)} columns, expected {width}",
                        path=str(path),
                        line=lineno,
                    )
                rows.append(values)
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise ParseError(f"cannot read file: {exc}", path=str(path)) from exc
    if not rows:
        raise ParseError("no samples found", path=str(path))
    return np.asarray(rows, dtype=float)


def write_frontier_csv(curve: FrontierCurve, path, flip_lambda: bool = False) -> None:
    """Write ``lambda,loss_recall,loss_precision`` rows ascending in lambda.

    ``flip_lambda`` remaps lambda -> 1 - lambda; used for exponential-family
    curves, whose paths run from Q to P, so that lambda = 0 always sits at
    the zero-loss-of-recall end in output files.
    """
    rows = [
        ((1.0 - lam) if flip_lambda else lam, div_p, div_q)
        for lam, div_p, div_q in curve.points
    ]
    rows.sort(key=lambda r: r[0])
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["lambda", "loss_recall", "loss_precision"])
        for lam, div_p, div_q in rows:
            writer.writerow([repr(float(lam)), repr(float(div_p)), repr(float(div_q))])


def write_prd_csv(prd: PRDCurve, path) -> None:
    """Write ``recall,precision`` rows ascending in recall."""
    rows = sorted((recall, precision) for precision, recall in prd.points)
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["recall", "precision"])
        for recall, precision in rows:
            writer.writerow([repr(float(recall)), repr(float(precision))])


def read_pairs_csv(path) -> list[tuple[float, ...]]:
    """Read back a frontier or PRD CSV (header skipped)."""
    with Path(path).open(newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        return [tuple(float(v) for v in row) for row in reader if row]


def load_pipeline_config(path) -> PipelineConfig:
    """Read {k_clusters, knn_k, ridge, alphas: [...], grid_size, seed} JSON."""
    path = Path(path)
    raw = _load_json(path)
    if not isinstance(raw, dict):
        raise ParseError("pipeline config must be a JSON object", path=str(path))
    defaults = PipelineConfig()
    try:
        alphas = tuple(Alpha.parse(a) for a in raw.get("alphas", [])) or defaults.alphas
        return PipelineConfig(
            k_clusters=int(raw.get("k_clusters", defaults.k_clusters)),
            knn_k=int(raw.get("knn_k", defaults.knn_k)),
            ridge=float(raw.get("ridge", defaults.ridge)),
            alphas=alphas,
            grid_size=int(raw.get("grid_size", defaults.grid_size)),
            seed=int(raw.get("seed", defaults.seed)),
        )
    except (TypeError, ValueError) as exc:
        raise ParseError(f"bad config value: {exc}", path=str(path)) from exc


def write_json(obj: dict, path) -> None:
    def default(o):
        if isinstance(o, (np.floating, np.integer)):
            return o.item()
        if isinstance(o, np.ndarray):
            return o.tolist()
        raise TypeError(f"not JSON serializable: {type(o)}")

    Path(path).write_text(json.dumps(_sanitize_inf(obj), indent=2, default=default) + "\n")


def _sanitize_inf(obj):
    if isinstance(obj, dict):
        return {k: _sanitize_inf(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize_inf(v) for v in obj]
    if isinstance(obj, float) and math.isinf(obj):
        return "inf"
    return obj
