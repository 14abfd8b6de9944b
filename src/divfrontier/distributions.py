"""Core distribution types: histograms on the simplex, divergence orders,
and Gaussian parameters.

All types are immutable after construction and validate their invariants
in the constructor, so downstream code can assume well-formed inputs.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, ParameterError

SYMMETRY_TOL = 1e-10
EQUALITY_TOL = 1e-12  # total-variation tolerance for "distributions equal"


@dataclass(frozen=True)
class Histogram:
    """A point on the probability simplex.

    The constructor normalizes, so entries sum to 1 up to float rounding.
    """

    probs: np.ndarray

    def __post_init__(self):
        try:
            probs = np.asarray(self.probs, dtype=float)
        except (TypeError, ValueError) as exc:
            raise ParameterError(f"histogram entries must be numbers: {exc}") from exc
        if probs.ndim != 1 or probs.size < 1:
            raise ParameterError("histogram must be a 1-D vector with at least one entry")
        low, top = probs.min(), probs.max()
        if not (math.isfinite(low) and math.isfinite(top)):
            raise ParameterError("histogram entries must be finite")
        if low < 0:
            raise ParameterError("histogram entries must be nonnegative")
        if top <= 0:
            raise ParameterError("histogram must have positive total mass")
        if top > sys.float_info.max / (2 * probs.size):  # the sum may overflow; with room for its rounding
            with np.errstate(over="ignore"):
                if math.isinf(probs.sum()):  # finite entries whose sum overflows
                    probs = probs / top
        probs = probs / probs.sum()
        probs.setflags(write=False)
        object.__setattr__(self, "probs", probs)

    def __len__(self):
        return self.probs.size


def histograms_equal(p: Histogram, q: Histogram, tol: float = EQUALITY_TOL) -> bool:
    """Equality in total-variation distance, default tolerance 1e-12."""
    if len(p) != len(q):
        return False
    return 0.5 * np.abs(p.probs - q.probs).sum() <= tol


@dataclass(frozen=True)
class Alpha:
    """Order of a Renyi divergence, a number in [0, inf].

    The limits 0, 1 and infinity have their own constructors and predicates
    so that every limiting code path is explicit.
    """

    value: float

    def __post_init__(self):
        try:
            value = float(self.value)
        except (TypeError, ValueError):
            value = math.nan
        if not 0.0 <= value <= math.inf:
            raise ParameterError(f"alpha must be a number in [0, inf], got {self.value!r}")
        object.__setattr__(self, "value", value)

    @classmethod
    def zero(cls) -> "Alpha":
        return cls(0.0)

    @classmethod
    def one(cls) -> "Alpha":
        return cls(1.0)

    @classmethod
    def infinity(cls) -> "Alpha":
        return cls(math.inf)

    @classmethod
    def finite(cls, value: float) -> "Alpha":
        value = float(value)
        if not (0.0 < value < math.inf and value != 1.0):
            raise ParameterError(
                "finite alpha must be in (0,1) or (1,inf); use Alpha.one() "
                "or the limit tags for 0, 1, inf"
            )
        return cls(value)

    @classmethod
    def parse(cls, text: str | float) -> "Alpha":
        """Map '0', '1', 'inf' (or 'oo') and nonnegative decimals to an order."""
        if isinstance(text, str):
            text = text.strip().lower()
            try:
                text = math.inf if text == "oo" else float(text)
            except ValueError as exc:
                raise ParameterError(f"cannot parse alpha {text!r}") from exc
        return cls(text)

    @property
    def kind(self) -> str:
        """'zero', 'one', 'infinity' or 'finite'."""
        return {0.0: "zero", 1.0: "one", math.inf: "infinity"}.get(self.value, "finite")

    @property
    def is_zero(self):
        return self.value == 0.0

    @property
    def is_one(self):
        return self.value == 1.0

    @property
    def is_infinity(self):
        return self.value == math.inf

    @property
    def is_finite(self):
        return self.kind == "finite"

    def __str__(self):
        return {0.0: "0", 1.0: "1", math.inf: "inf"}.get(self.value, repr(self.value))


def require_alpha(alpha) -> None:
    """Raise ParameterError unless alpha is an Alpha; the one check of every
    public function that takes an order."""
    if not isinstance(alpha, Alpha):
        raise ParameterError(f"alpha must be an Alpha, got {alpha!r}; make one with Alpha.parse({alpha!r})")


def require_distinct_orders(alphas, what: str) -> None:
    """Raise ParameterError if two orders share their str, under which each
    order's frontier is reported; what names the orders' source."""
    names = [str(a) for a in alphas]
    if len(set(names)) < len(names):
        raise ParameterError(f"{what} repeats an order: {names}")


@dataclass(frozen=True)
class GaussianParams:
    """Mean vector and positive-definite covariance of a multivariate normal."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = np.atleast_1d(np.asarray(self.mean, dtype=float))
        cov = np.atleast_2d(np.asarray(self.cov, dtype=float))
        d = mean.size
        if mean.ndim != 1:
            raise ParameterError("mean must be a vector")
        if cov.shape != (d, d):
            raise DimensionError(f"cov must be {d}x{d}, got {cov.shape}")
        if not (np.all(np.isfinite(mean)) and np.all(np.isfinite(cov))):
            raise ParameterError("Gaussian parameters must be finite")
        # relative to the largest entry, so one ulp of asymmetry passes at any scale
        if np.max(np.abs(cov - cov.T)) > SYMMETRY_TOL * max(1.0, float(np.max(np.abs(cov)))):
            raise ParameterError("covariance is not symmetric within 1e-10 of max(1, its largest entry)")
        cov = 0.5 * cov + 0.5 * cov.T  # not 0.5 * (cov + cov.T), which overflows near float max
        try:
            np.linalg.cholesky(cov)
        except np.linalg.LinAlgError as exc:
            raise ParameterError("covariance is not positive definite") from exc
        mean.setflags(write=False)
        cov.setflags(write=False)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)

    @property
    def dim(self) -> int:
        return self.mean.size


def check_same_length(p: Histogram, q: Histogram) -> None:
    if len(p) != len(q):
        raise DimensionError(f"histogram lengths differ: {len(p)} vs {len(q)}")


def check_same_dim(a: GaussianParams, b: GaussianParams) -> None:
    if a.dim != b.dim:
        raise DimensionError(f"Gaussian dimensions differ: {a.dim} vs {b.dim}")
