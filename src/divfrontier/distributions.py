"""Core distribution types: histograms on the simplex, divergence orders,
and Gaussian parameters.

All types are immutable after construction and validate their invariants
in the constructor, so downstream code can assume well-formed inputs.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

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
        probs = np.asarray(self.probs, dtype=float)
        if probs.ndim != 1 or probs.size < 1:
            raise ParameterError("histogram must be a 1-D vector with at least one entry")
        if not np.all(np.isfinite(probs)):
            raise ParameterError("histogram entries must be finite")
        if np.any(probs < 0):
            raise ParameterError("histogram entries must be nonnegative")
        total = probs.sum()
        if total <= 0:
            raise ParameterError("histogram must have positive total mass")
        if math.isinf(total):  # finite entries whose sum overflows
            probs = probs / probs.max()
            total = probs.sum()
        probs = probs / total
        probs.setflags(write=False)
        object.__setattr__(self, "probs", probs)

    def __len__(self):
        return self.probs.size

    @property
    def support(self) -> np.ndarray:
        """Boolean mask of entries carrying mass."""
        return self.probs > 0.0


def histograms_equal(p: Histogram, q: Histogram, tol: float = EQUALITY_TOL) -> bool:
    """Equality in total-variation distance, default tolerance 1e-12."""
    if len(p) != len(q):
        return False
    return 0.5 * np.abs(p.probs - q.probs).sum() <= tol


@dataclass(frozen=True)
class Alpha:
    """Order of a Renyi divergence, as an extended nonnegative real.

    The limits 0, 1 and infinity are distinct tags rather than floats so
    that every limiting code path is explicit.
    """

    kind: str  # "zero" | "one" | "infinity" | "finite"
    value: float | None = None

    _KINDS = ("zero", "one", "infinity", "finite")

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise ParameterError(f"unknown alpha kind {self.kind!r}")
        if self.kind == "finite":
            v = self.value
            if v is None or not np.isfinite(v) or v <= 0 or v == 1:
                raise ParameterError(
                    "finite alpha must be in (0,1) or (1,inf); use Alpha.one() "
                    "or the limit tags for 0, 1, inf"
                )
        elif self.value is not None:
            raise ParameterError(f"alpha kind {self.kind!r} takes no value")

    @classmethod
    def zero(cls) -> "Alpha":
        return cls("zero")

    @classmethod
    def one(cls) -> "Alpha":
        return cls("one")

    @classmethod
    def infinity(cls) -> "Alpha":
        return cls("infinity")

    @classmethod
    def finite(cls, value: float) -> "Alpha":
        return cls("finite", float(value))

    @classmethod
    def parse(cls, text: str | float) -> "Alpha":
        """Map '0', '1', 'inf' and positive decimals to the right tag."""
        if isinstance(text, str):
            text = text.strip().lower()
            if text in ("inf", "infinity", "oo"):
                return cls.infinity()
            try:
                value = float(text)
            except ValueError as exc:
                raise ParameterError(f"cannot parse alpha {text!r}") from exc
        else:
            value = float(text)
        if value == 0:
            return cls.zero()
        if value == 1:
            return cls.one()
        if np.isinf(value):
            return cls.infinity()
        return cls.finite(value)

    @property
    def is_zero(self):
        return self.kind == "zero"

    @property
    def is_one(self):
        return self.kind == "one"

    @property
    def is_infinity(self):
        return self.kind == "infinity"

    @property
    def is_finite(self):
        return self.kind == "finite"

    def __str__(self):
        if self.kind == "finite":
            return repr(self.value)
        return {"zero": "0", "one": "1", "infinity": "inf"}[self.kind]


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
        if np.max(np.abs(cov - cov.T)) > SYMMETRY_TOL:
            raise ParameterError("covariance is not symmetric within 1e-10")
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
