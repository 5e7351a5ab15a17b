"""Independent reference implementations that the program is compared against.

Each oracle computes a quantity the package also computes, by a different
route, and is used only by tests:

- `evaluate`: a polynomial's value at a matrix, term by term (exact for exact
  input), against which the Chow forms, discriminants and the substitution
  action are checked.
- `fs_norm_sq_exact` and `fs_inner`: the factorial-weighted norm and inner
  product in exact rational or plain floating arithmetic, for the log-sum-exp
  norms of `kenergy.pairing` and the moment matrices of `kenergy.energy`.
- `bergman_metric` and `chern1_density`: the metric coefficient h(z) from the
  z-derivative of the sections by the Lagrange identity, and its curvature by
  a finite-difference Laplacian in z, for the closed-form Pluecker densities
  of `kenergy.numeric`.
"""

import math
from fractions import Fraction

import numpy as np

from kenergy.errors import KEnergyError, ShapeMismatchError, ZeroPolynomialError
from kenergy.exactpoly import MatrixPoly, as_coefficient
from kenergy.numeric import _sigma_matrix


def evaluate(poly: MatrixPoly, matrix):
    """Evaluate at an m x c matrix of numbers.

    Exact when both the polynomial and the matrix are exact; otherwise the
    terms are summed in canonical order for reproducible floating results.
    """
    rows = [list(row) for row in matrix]
    if len(rows) != poly.shape[0] or any(len(r) != poly.shape[1] for r in rows):
        raise ShapeMismatchError(f"evaluation point has wrong shape, expected {poly.shape}")
    entries = [[as_coefficient(v) for v in row] for row in rows]
    exact = poly.is_exact and all(isinstance(v, Fraction) for row in entries for v in row)
    if not exact:
        entries = [[complex(v) for v in row] for row in entries]
    total = Fraction(0) if exact else complex(0)
    for exp, coeff in poly.terms():
        term = coeff if exact else complex(coeff)
        for r, row in enumerate(exp):
            for c, e in enumerate(row):
                if e:
                    term = term * entries[r][c] ** e
        total = total + term
    return total


def fs_norm_sq_exact(p: MatrixPoly) -> Fraction:
    """Exact squared norm sum |c|^2 / alpha! (exact polynomials only)."""
    if p.is_zero:
        raise ZeroPolynomialError("norm of the zero polynomial")
    total = Fraction(0)
    for exp, coeff in p.term_dict().items():
        if not isinstance(coeff, Fraction):
            raise KEnergyError("exact norm requires exact coefficients")
        w = 1
        for row in exp:
            for e in row:
                if e > 1:
                    w *= math.factorial(e)
        total += coeff * coeff / w
    return total


def fs_inner(p: MatrixPoly, q: MatrixPoly) -> complex:
    """Factorial-weighted Hermitian inner product of coefficient vectors."""
    if p.shape != q.shape:
        raise KEnergyError("inner product needs matching variable shapes")
    qterms = q.term_dict()
    total = 0j
    for exp, cp in p.term_dict().items():
        cq = qterms.get(exp)
        if cq is None:
            continue
        w = 1.0
        for row in exp:
            for e in row:
                if e > 1:
                    w *= math.factorial(e)
        total += complex(cp) * complex(cq).conjugate() / w
    return total


def sections_prime(chart, z):
    """dT_i/dz = p_i z^(p_i - 1) for the monomial sections of a curve chart."""
    z = np.asarray(z, dtype=complex)
    out = np.zeros((len(chart.powers), z.size), dtype=complex)
    for i, e in enumerate(chart.powers):
        if e:
            out[i] = e * z ** (e - 1)
    return out


def _gram_ratio(U, V):
    """(|U|^2 |V|^2 - |<V,U>|^2) / |U|^4 via the Lagrange identity."""
    nU = np.einsum("im,im->m", U, U.conj()).real
    W = np.zeros(U.shape[1], dtype=float)
    for i in range(U.shape[0]):
        for j in range(i + 1, U.shape[0]):
            W += np.abs(U[i] * V[j] - U[j] * V[i]) ** 2
    return W / nU**2


def bergman_metric(chart, sigma, z):
    """Metric coefficient h(z) = dd-bar log |sigma T(z)|^2, positive at
    immersion points."""
    S = _sigma_matrix(sigma)
    zs = np.atleast_1d(np.asarray(z, dtype=complex))
    U = S @ chart.sections(zs)
    V = S @ sections_prime(chart, zs)
    h = _gram_ratio(U, V)
    return float(h[0]) if np.isscalar(z) or np.asarray(z).ndim == 0 else h


def chern1_density(chart, sigma, z, step=None):
    """Curvature density -(1/(4 pi)) Laplacian_z log h against dx dy,
    by fourth-order central differences with a scale-aware step."""
    S = _sigma_matrix(sigma)
    z = complex(z)
    if step is None:
        step = 6e-4 * (1.0 + abs(z))

    def logh(point):
        return math.log(bergman_metric(chart, S, complex(point)))

    lap = 0.0
    for direction in (1.0, 1j):
        d = direction * step
        lap += (
            -logh(z + 2 * d)
            + 16 * logh(z + d)
            - 30 * logh(z)
            + 16 * logh(z - d)
            - logh(z - 2 * d)
        ) / (12 * step * step)
    return -lap / (4 * math.pi)
