"""Factorial-weighted norms, group bookkeeping and weights.

The squared norm of a polynomial is sum |c_alpha|^2 / alpha! with alpha! the
product of factorials of all matrix-entry exponents.  Log-norms are always
evaluated in floating point with max-term factoring (a log-sum-exp), so
one-parameter degenerations down to |t| ~ 1e-300 stay finite.  Everything
here is per stored polynomial; kenergy.energy combines the values with
integer coefficients, so the tensors of the pair (v_k, w_k) are never formed.
A log-norm ratio is computed afresh at each call, with no cache: a diagonal
sigma through the column log scales of `diagonal_log_ratio`, any other through
one substitution (`exactpoly.right_substitute`, one row at a time).

The weight of a monomial under an integer one-parameter subgroup is the dot
product of its column-degree vector with the weights; the asymptotic slope of
log |lambda(t) p|^2 against log|t|^2 as |t| -> 0 is the MINIMUM such weight,
because the smallest power of |t| dominates.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import KEnergyError, ShapeMismatchError, ZeroPolynomialError
from .exactpoly import (
    MatrixPoly,
    as_coefficient,
    coeff_abs_sq,
    column_degree,
    laplace_det,
    right_substitute,
)

DET_TOL = 1e-12


@dataclass(frozen=True)
class GroupElement:
    """Element of SL(N+1, C): exact (rational Fraction) or floating (complex)
    entries.  Complex sigma lives only in the floating lane; a matrix is exact
    when every entry is an int or a Fraction."""

    entries: tuple
    exact: bool

    @classmethod
    def from_matrix(cls, matrix, normalize=False):
        """Wrap a matrix, checking det = 1: exactly for exact entries; for
        floating entries |det - 1| must be within DET_TOL times the Hadamard
        bound prod_i |row_i|, the scale of the rounding error in det.

        normalize=True rescales floating input onto det = 1 instead of
        checking; the result is then det-1 to the accuracy of the floating
        determinant itself, so no further check is applied.
        """
        rows = [list(row) for row in matrix]
        size = len(rows)
        if any(len(r) != size for r in rows):
            raise KEnergyError("group element must be square")
        coeffs = [[as_coefficient(v) for v in row] for row in rows]
        exact = all(isinstance(v, Fraction) for row in coeffs for v in row)
        if not exact:  # a floating element holds complex entries only
            coeffs = [[complex(v) for v in row] for row in coeffs]
            if not all(cmath.isfinite(v) for row in coeffs for v in row):
                raise KEnergyError("group element has a non-finite entry")
        if normalize and not exact:
            det = np.linalg.det(np.array(coeffs))
            if det == 0:
                raise KEnergyError("matrix is singular")
            root = det ** (1.0 / size)
            coeffs = [[v / root for v in row] for row in coeffs]
            return cls(entries=tuple(tuple(row) for row in coeffs), exact=False)
        ge = cls(entries=tuple(tuple(row) for row in coeffs), exact=exact)
        ge._check_determinant()
        return ge

    @classmethod
    def identity(cls, size):
        return cls.diagonal([1] * size)

    @classmethod
    def diagonal(cls, values):
        vals = [as_coefficient(v) for v in values]
        exact = all(isinstance(v, Fraction) for v in vals)
        if not exact:
            vals = [complex(v) for v in vals]
        zero = Fraction(0) if exact else 0j
        rows = tuple(tuple(v if i == j else zero for j in range(len(vals)))
                     for i, v in enumerate(vals))
        ge = cls(entries=rows, exact=exact)
        ge._check_determinant()
        return ge

    def _check_determinant(self):
        if self.exact:
            det = laplace_det([list(row) for row in self.entries], Fraction(1))
            if det != 1:
                raise KEnergyError(f"exact group element has determinant {det} != 1")
            return
        matrix = self.matrix
        if self.is_diagonal:
            det = complex(math.prod(self.entries[i][i] for i in range(self.size)))
        else:
            det = complex(np.linalg.det(matrix))
        tol = DET_TOL * float(np.prod(np.linalg.norm(matrix, axis=1)))
        if abs(det - 1.0) > tol:
            raise KEnergyError(
                f"determinant {det} is not 1 within {DET_TOL} times the Hadamard bound"
            )

    @property
    def size(self):
        return len(self.entries)

    @property
    def is_diagonal(self):
        return all(
            not self.entries[i][j]
            for i in range(self.size)
            for j in range(self.size)
            if i != j
        )

    @property
    def matrix(self):
        return np.array([[complex(v) for v in row] for row in self.entries])


@dataclass(frozen=True)
class OneParamSubgroup:
    """Integer weight vector (a_0, ..., a_N) with sum zero."""

    weights: tuple

    def __post_init__(self):
        object.__setattr__(self, "weights", tuple(int(w) for w in self.weights))
        if sum(self.weights) != 0:
            raise KEnergyError("one-parameter subgroup weights must sum to zero")

    def at(self, t):
        """The diagonal element diag(t^a_0, ..., t^a_N)."""
        if isinstance(t, (int, Fraction)):
            t = Fraction(t)
            return GroupElement.diagonal([t ** w for w in self.weights])
        return GroupElement.diagonal([complex(t) ** w for w in self.weights])


# ---------------------------------------------------------------------------
# Norms
# ---------------------------------------------------------------------------


def _log_factorial_weight(exp):
    return sum(math.lgamma(e + 1) for row in exp for e in row if e)


def log_fs_norm_sq(p: MatrixPoly, column_log_scale=None) -> float:
    """log of the squared factorial-weighted norm, via max-term factoring.

    column_log_scale optionally adds sum_c coldeg_c * 2*log|t_c| per term,
    the stable evaluation of a diagonal substitution without forming it.
    """
    if p.is_zero:
        raise ZeroPolynomialError("norm of the zero polynomial")
    logs = []
    for exp, coeff in p.term_dict().items():
        if isinstance(coeff, Fraction):
            sq = coeff_abs_sq(coeff)
            ll = math.log(sq.numerator) - math.log(sq.denominator)
        else:
            size = abs(coeff)  # log|c|^2 as 2 log|c|: |c|^2 overflows from |c| ~ 1e154
            if not math.isfinite(size):
                raise KEnergyError(f"coefficient {coeff} is not finite; give sigma exactly "
                                   "(integer or rational strings) to use the exact lane")
            if size == 0.0:
                continue
            ll = 2.0 * math.log(size)
        ll -= _log_factorial_weight(exp)
        if column_log_scale is not None:
            ll += sum(
                2.0 * d * s for d, s in zip(column_degree(exp), column_log_scale) if d
            )
        logs.append(ll)
    if not logs:
        raise ZeroPolynomialError("norm of a numerically zero polynomial")
    top = max(logs)
    return top + math.log(sum(math.exp(v - top) for v in logs))


def fs_norm_sq(p: MatrixPoly) -> float:
    """Squared factorial-weighted norm as a float; a domain error, naming
    the log norm, when it exceeds the float range."""
    log_norm = log_fs_norm_sq(p)
    try:
        return math.exp(log_norm)
    except OverflowError:
        raise KEnergyError(f"squared norm exp({log_norm!r}) exceeds the float range") from None


def diagonal_log_ratio(p: MatrixPoly, column_log_scale) -> float:
    """log ( |t . p|^2 / |p|^2 ) for the diagonal t with log|t_c| given per column."""
    return log_fs_norm_sq(p, column_log_scale) - log_fs_norm_sq(p)


def log_norm_ratio(sigma: GroupElement, p: MatrixPoly) -> float:
    """log ( |sigma . p|^2 / |p|^2 ); exactly 0.0 at the identity."""
    if p.is_zero:
        raise ZeroPolynomialError("log-norm ratio of the zero polynomial")
    if sigma.size != p.shape[1]:
        raise ShapeMismatchError(
            f"group element of size {sigma.size} acts on {p.shape[1]} columns"
        )
    if sigma.is_diagonal:
        return diagonal_log_ratio(
            p, [math.log(abs(complex(sigma.entries[j][j]))) for j in range(sigma.size)])
    return log_fs_norm_sq(right_substitute(p, sigma.entries)) - log_fs_norm_sq(p)


# ---------------------------------------------------------------------------
# Weights
# ---------------------------------------------------------------------------


def column_degrees(p: MatrixPoly) -> np.ndarray:
    """The distinct column-degree vectors of p's terms, one int64 row each."""
    exps = np.array(list(p.term_dict()), dtype=np.int64).reshape(-1, *p.shape)
    return np.unique(exps.sum(axis=1), axis=0)


def min_weight(lam: OneParamSubgroup, p: MatrixPoly) -> int:
    """Minimum over terms of <column-degree vector, weights> (the |t| -> 0 slope)."""
    if p.is_zero:
        raise ZeroPolynomialError("weight of the zero polynomial")
    weights = lam.weights
    if len(weights) != p.shape[1]:
        raise ShapeMismatchError(
            f"one-parameter subgroup has {len(weights)} weights for {p.shape[1]} columns"
        )
    # object entries keep exact Python integers: user weights may exceed int64
    return int((column_degrees(p) @ np.array(weights, dtype=object)).min())
