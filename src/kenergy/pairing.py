"""Factorial-weighted norms, group bookkeeping and weights.

The squared norm of a polynomial is sum |c_alpha|^2 / alpha! with alpha! the
product of factorials of all matrix-entry exponents; over the torus it splits
as |diag(t) . p|^2 = sum_chi N_chi |t|^(2 chi), chi running over p's distinct
column-degree vectors.  Every sparse norm, diagonal ratio and weight reads
that table (`weight_classes`).  Log-norms are evaluated in floating point with
max-term factoring (a log-sum-exp), so one-parameter degenerations down to
|t| ~ 1e-300 stay finite.  Everything here is per stored polynomial;
kenergy.energy nets the values with one integer vector c, so the tensors
of the pair (v_k, w_k) are never formed.  A log-norm ratio is computed afresh
at each call: a diagonal sigma from the weight-class table, an exact one
through `exactpoly.right_substitute`, a floating one on the dense lane
(`dense_form`), where sigma acts on each row's mode through Sym^d(sigma);
only integer index tables are memoized.

The weight of a monomial under an integer one-parameter subgroup is the dot
product of its column-degree vector with the weights; the asymptotic slope of
log |lambda(t) p|^2 against log|t|^2 as |t| -> 0 is the MINIMUM such weight
over the classes, because the smallest power of |t| dominates.
"""

from __future__ import annotations

import cmath
import functools
import math
from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import KEnergyError, ShapeMismatchError, ZeroPolynomialError
from .exactpoly import (
    MatrixPoly,
    as_coefficient,
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


def weight_classes(p: MatrixPoly):
    """The torus table (D, L) of p: D holds the distinct column-degree vectors
    of p's terms as int64 rows, sorted; L[i] is the log squared norm of p's
    weight-D[i] part, so |diag(t) . p|^2 = sum_i exp(L[i]) prod_c |t_c|^(2 D[i, c]).

    One walk over the terms, then max-term factoring per class, not by one
    maximum: a class negligible at t = 1 may dominate at |t| ~ 1e-300.
    """
    if p.is_zero:
        raise ZeroPolynomialError("norm of the zero polynomial")
    exps, logs = [], []
    for exp, coeff in p.term_dict().items():
        if not isinstance(coeff, Fraction):
            size = abs(coeff)  # log|c|^2 as 2 log|c|: |c|^2 overflows from |c| ~ 1e154
            if not math.isfinite(size):
                raise KEnergyError(f"coefficient {coeff} is not finite; give sigma exactly "
                                   "(integer or rational strings) to use the exact lane")
            if size == 0.0:
                continue
        logs.append(2.0 * _log_abs(coeff))
        exps.append(exp)
    if not exps:
        raise ZeroPolynomialError("norm of a numerically zero polynomial")
    exps = np.array(exps, dtype=np.int64)
    log_factorial = np.array([math.lgamma(e + 1) for e in range(exps.max() + 1)])
    logs = np.array(logs) - log_factorial[exps].sum(axis=(1, 2))
    degrees, which = np.unique(exps.sum(axis=1), axis=0, return_inverse=True)
    top = np.full(len(degrees), -np.inf)
    np.maximum.at(top, which, logs)
    return degrees, top + np.log(np.bincount(which, np.exp(logs - top[which]), len(degrees)))


def _log_abs(v) -> float:
    """log|v|; for a Fraction log|num| - log den, finite far outside the float range."""
    if isinstance(v, Fraction):
        return math.log(abs(v.numerator)) - math.log(v.denominator)
    return math.log(abs(v))


def _log_sum_exp(logs) -> float:
    top = logs.max()
    return float(top + math.log(np.exp(logs - top).sum()))


def log_fs_norm_sq(p: MatrixPoly) -> float:
    """log of the squared norm: the log-sum-exp of the class norms."""
    return _log_sum_exp(weight_classes(p)[1])


def fs_norm_sq(p: MatrixPoly) -> float:
    """Squared factorial-weighted norm as a float; a domain error, naming
    the log norm, when it exceeds the float range."""
    log_norm = log_fs_norm_sq(p)
    try:
        return math.exp(log_norm)
    except OverflowError:
        raise KEnergyError(f"squared norm exp({log_norm!r}) exceeds the float range") from None


def diagonal_log_ratio(classes, column_log_scale) -> float:
    """log ( |t . p|^2 / |p|^2 ) for the diagonal t with log|t_c| given per
    column, from p's table classes = (D, L) of `weight_classes`: the class
    norms scale by |t|^(2 D[i]), with no group element formed, so t may lie
    far outside the float range.  Exactly 0.0 when every log|t_c| is 0."""
    degrees, logs = classes
    shift = degrees @ np.asarray(column_log_scale, dtype=float)
    return _log_sum_exp(logs + 2.0 * shift) - _log_sum_exp(logs)


def log_norm_ratio(sigma: GroupElement, p: MatrixPoly) -> float:
    """log ( |sigma . p|^2 / |p|^2 ); exactly 0.0 at the identity."""
    if p.is_zero:
        raise ZeroPolynomialError("log-norm ratio of the zero polynomial")
    if sigma.size != p.shape[1]:
        raise ShapeMismatchError(
            f"group element of size {sigma.size} acts on {p.shape[1]} columns"
        )
    if sigma.is_diagonal:
        return diagonal_log_ratio(weight_classes(p), [
            _log_abs(sigma.entries[j][j]) for j in range(sigma.size)])
    if sigma.exact:
        return log_fs_norm_sq(right_substitute(p, sigma.entries)) - log_fs_norm_sq(p)
    form = dense_form(p)
    return _dense_log_norm_sq(dense_image(sigma, form)) - _dense_log_norm_sq(form)


_Tables = namedtuple("_Tables", "index scale up parent col coef")


@functools.cache
def _tables(n, d):
    """The degree-d monomials in n variables, sorted: their positions, the
    entry scale 1/sqrt(alpha!) (the one place the norm weight enters the dense
    lane), and for d >= 1 the links to degree d - 1: up[delta, j] is delta + e_j,
    alpha is parent[alpha] + e_{col[alpha]}; coef is used by `moment_matrix`."""
    if d == 0:
        return _Tables({(0,) * n: 0}, np.ones(1), *[None] * 4)
    lower = _tables(n, d - 1)
    raised = [[v[:j] + (v[j] + 1,) + v[j + 1:] for j in range(n)] for v in lower.index]
    index = {v: i for i, v in enumerate(sorted({v for row in raised for v in row}))}
    scale = np.array([1.0 / math.sqrt(math.prod(map(math.factorial, v))) for v in index])
    up = np.array([[index[v] for v in row] for row in raised])
    col = np.array([next(c for c, e in enumerate(v) if e) for v in index])
    parent = np.array([lower.index[v[:c] + (v[c] - 1,) + v[c + 1:]] for v, c in zip(index, col)])
    lifted = scale[up]
    coef = (np.array(list(lower.index))[:, :, None] + 1) * lifted[:, None] / lifted[..., None]
    return _Tables(index, scale, up, parent, col, coef)


def sym_powers(g, top):
    """[Sym^0(g), ..., Sym^top(g)]: column alpha holds (x g)^alpha, scaled as in
    `dense_form`; level d is level d - 1 times one column of g, summed over j."""
    raw = np.ones((1, 1), dtype=complex)
    powers = [raw]
    for d in range(1, top + 1):
        t = _tables(len(g), d)
        lower = raw[:, t.parent]
        raw = np.zeros((len(t.parent), len(t.parent)), dtype=complex)
        for j, column in enumerate(g[:, t.col]):
            raw[t.up[:, j]] += lower * column
        powers.append(raw * (t.scale[:, None] / t.scale))
    return powers


def dense_form(p: MatrixPoly) -> dict:
    """p as {row-degree vector: tensor of entries c_alpha / sqrt(alpha!)}, one mode
    per row; parts of different row degrees are orthogonal and stay apart."""
    form = {}  # the terms of each row-degree vector, then their tensor
    for exp, coeff in p.term_dict().items():
        form.setdefault(tuple(map(sum, exp)), []).append((exp, coeff))
    for degrees, terms in form.items():
        tables = [_tables(p.shape[1], d) for d in degrees]
        at = np.array([[t.index[row] for t, row in zip(tables, exp)] for exp, _ in terms]).T
        form[degrees] = tensor = np.zeros([len(t.scale) for t in tables], dtype=complex)
        tensor[tuple(at)] = np.array([complex(coeff) for _, coeff in terms]) * math.prod(
            t.scale[positions] for t, positions in zip(tables, at))
    return form


def dense_image(sigma: GroupElement, form: dict) -> dict:
    """The dense form of sigma . p from that of p.  sigma is not rescaled: a
    coefficient that leaves the float range raises, not a wrong norm."""
    image = {}
    with np.errstate(over="ignore", invalid="ignore"):
        powers = sym_powers(sigma.matrix, max(max(degrees) for degrees in form))
        for degrees, tensor in form.items():
            for d in degrees:  # each product consumes mode 0 and appends the new mode last
                tensor = np.tensordot(tensor, powers[d], (0, 1))
            if not np.isfinite(tensor).all():
                raise KEnergyError("a substituted coefficient is not finite; give sigma exactly "
                                   "(integer or rational strings) to use the exact lane")
            image[degrees] = tensor
    return image


def _dense_log_norm_sq(form) -> float:
    top = max(float(np.abs(t).max()) for t in form.values())
    if top == 0.0:
        raise ZeroPolynomialError("norm of a numerically zero polynomial")
    return 2.0 * math.log(top) + math.log(sum(np.vdot(t / top, t / top).real
                                              for t in form.values()))


def moment_matrix(form, n) -> np.ndarray:
    """M[j, c] = <L_jc q, q> / |q|^2 for the dense form of q, L_jc = sum_r
    x[r][j] d/dx[r][c].  L_jc sends delta + e_c to delta + e_j times delta_c + 1,
    so a mode with Gram matrix G adds sum_delta coef[delta, c, j] G[delta + e_c,
    delta + e_j], coef = (delta_c + 1) scale[delta + e_j] / scale[delta + e_c]."""
    top = max(float(np.abs(t).max()) for t in form.values())
    moment = np.zeros((n, n), dtype=complex)
    norm = 0.0
    for degrees, tensor in form.items():
        tensor = tensor / top  # M is scale-free; this keeps the products finite
        norm += np.vdot(tensor, tensor).real
        for r, d in enumerate(degrees):
            if d:
                unfolded = np.moveaxis(tensor, r, 0).reshape(tensor.shape[r], -1)
                gram = unfolded @ unfolded.conj().T
                t = _tables(n, d)
                moment += np.einsum("dcj,dcj->jc", t.coef, gram[t.up[..., None], t.up[:, None]])
    return moment / norm


# ---------------------------------------------------------------------------
# Weights
# ---------------------------------------------------------------------------


def min_weight(lam: OneParamSubgroup, p: MatrixPoly) -> int:
    """Minimum over p's weight classes of <column-degree vector, weights>
    (the |t| -> 0 slope)."""
    if p.is_zero:
        raise ZeroPolynomialError("weight of the zero polynomial")
    weights = lam.weights
    if len(weights) != p.shape[1]:
        raise ShapeMismatchError(
            f"one-parameter subgroup has {len(weights)} weights for {p.shape[1]} columns"
        )
    # object entries keep exact Python integers: user weights may exceed int64
    return int((weight_classes(p)[0] @ np.array(weights, dtype=object)).min())
