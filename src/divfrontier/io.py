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
import warnings
from pathlib import Path

import numpy as np

from .discrete_frontier import FrontierCurve, PRDCurve
from .distributions import Alpha, GaussianParams, Histogram, require_distinct_orders
from .errors import ParameterError, ParseError
from .estimation import PipelineConfig


def _number_list(value, field: str, path: Path) -> list[float]:
    """A JSON list of numbers (or "inf") as floats; anything else is a
    ParseError naming the field and the file."""
    if not isinstance(value, list):
        raise ParseError(f"field {field!r} must be a list of numbers, got {value!r}", path=str(path))
    out = []
    for x in value:
        if isinstance(x, str) and x.strip().lower() == "inf":
            out.append(float("inf"))
        elif _is_number(x):
            out.append(float(x))
        else:
            raise ParseError(f"field {field!r} must hold numbers, got {x!r}", path=str(path))
    return out


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
            return Histogram(np.array(_number_list(spec["probs"], "probs", path)))
        if kind == "gaussian":
            mean = np.array(_number_list(spec["mean"], "mean", path))
            rows = spec["cov"]
            if not isinstance(rows, list):
                raise ParseError(f"field 'cov' must be a list of lists, got {rows!r}", path=str(path))
            cov = np.array([_number_list(row, f"cov[{i}]", path) for i, row in enumerate(rows)])
            return GaussianParams(mean, cov)
    except KeyError as exc:
        raise ParseError(f"missing key {exc.args[0]!r} in {kind} spec", path=str(path)) from exc
    except (OverflowError, ValueError) as exc:  # an integer beyond float range, or a ragged matrix
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
    """Headerless CSV of embedding vectors, one per row.

    NumPy's parser reads a well-formed file. A file it rejects or finds
    empty is read again row by row, which accepts what Python's ``csv`` and
    ``float`` accept and otherwise raises a ParseError with the line.
    """
    path = Path(path)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # loadtxt warns on a file with no rows
            samples = np.loadtxt(path, delimiter=",", ndmin=2, comments=None, encoding="utf-8")
        if samples.shape[0] > 0:
            return samples
    except (OSError, ValueError):
        pass  # the row loop reads it again and names the offending line
    return _read_samples_rows(path)


def _read_samples_rows(path: Path) -> np.ndarray:
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
    _write_rows(path, ["lambda", "loss_recall", "loss_precision"], sorted(rows, key=lambda r: r[0]))


def write_prd_csv(prd: PRDCurve, path) -> None:
    """Write ``recall,precision`` rows ascending in recall."""
    _write_rows(path, ["recall", "precision"], sorted((recall, precision) for precision, recall in prd.points))


def _write_rows(path, header: list[str], rows) -> None:
    """A CSV of the header and the rows in their order, each value as the
    shortest repr that reads back to the same float."""
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([repr(float(v)) for v in row] for row in rows)


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
    alphas = raw.get("alphas", [])
    if not isinstance(alphas, list) or not all(_is_number(a) or isinstance(a, str) for a in alphas):
        raise ParseError("config field 'alphas' must be a list of numbers or strings", path=str(path))

    def field(key: str, kind: type):
        value = raw.get(key, getattr(defaults, key))
        # JSON has one number type, so an integral float such as 1e3 is an integer
        if not _is_number(value) or (kind is int and not float(value).is_integer()):
            noun = "an integer" if kind is int else "a number"
            raise ParseError(f"config field {key!r} must be {noun}, got {value!r}", path=str(path))
        return kind(value)

    def seed():
        value = field("seed", int)
        if value < 0:  # np.random.default_rng takes only non-negative seeds
            raise ParseError(f"config field 'seed' must be a non-negative integer, got {value}", path=str(path))
        return value

    try:
        alphas = tuple(Alpha.parse(a) for a in alphas) or defaults.alphas
        values = dict(
            k_clusters=field("k_clusters", int),
            knn_k=field("knn_k", int),
            ridge=field("ridge", float),
            grid_size=field("grid_size", int),
            seed=seed(),
        )
        require_distinct_orders(alphas, "config field 'alphas'")
    except (OverflowError, ParameterError) as exc:  # the latter from Alpha.parse or a repeated order
        raise ParseError(f"bad config value: {exc}", path=str(path)) from exc
    return PipelineConfig(alphas=alphas, **values)  # a value out of range is a ParameterError, as where it is used


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def write_json(obj: dict, path) -> None:
    Path(path).write_text(json_text(obj))


def json_text(obj: dict) -> str:
    """Indented JSON with +inf as "inf"; -inf or NaN raises ValueError,
    since strict JSON has no literal for them."""
    return json.dumps(_jsonable(obj), indent=2, allow_nan=False) + "\n"


def _jsonable(obj):
    """obj with NumPy arrays and scalars as Python values and +inf as "inf",
    at any depth."""
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    elif isinstance(obj, np.generic):
        obj = obj.item()
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return "inf" if obj == math.inf else obj
