"""Independent reference implementations that the program is compared against.

Each oracle computes a quantity the package also computes, by a different
route, and is used only by tests:

- `evaluate`: a polynomial's value at a matrix, term by term (exact for exact
  input), against which the Chow forms, discriminants and the substitution
  action are checked.
- `fs_norm_sq_exact` and `fs_inner`: the factorial-weighted norm and inner
  product in exact rational or plain floating arithmetic, for the log-sum-exp
  norms of `kenergy.pairing` and the moment matrices of `kenergy.energy`.
- `weight_class_norms`: the exact norm of each column-degree part, for the
  weight-class table `kenergy.pairing.weight_classes`.
- `bergman_metric` and `chern1_density`: the metric coefficient h(z) from the
  z-derivative of the sections by the Lagrange identity, and its curvature by
  a finite-difference Laplacian in z, for the closed-form Pluecker densities
  of `kenergy.numeric`.
- `toric_energy`: the k = 1 energy along a diagonal path as a 1-D integral in
  log|z| from softmax cumulants, for `kenergy.numeric.energy_quadrature`.
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


def weight_class_norms(p: MatrixPoly) -> dict:
    """{column-degree vector: exact squared norm of p's part of that degree},
    summed term by term (exact polynomials only)."""
    classes = {}
    for exp, coeff in p.term_dict().items():
        if not isinstance(coeff, Fraction):
            raise KEnergyError("exact class norms require exact coefficients")
        degree = tuple(sum(row[c] for row in exp) for c in range(p.shape[1]))
        w = math.prod(math.factorial(e) for row in exp for e in row)
        classes[degree] = classes.get(degree, Fraction(0)) + coeff * coeff / w
    return classes


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



def toric_energy(powers, x, mu1, degree):
    """The k = 1 energy of a curve along the diagonal path sigma_t = exp(t diag(x)).

    A diagonal metric depends on u = log|z| only:
    psi_t(u) = log sum_i exp(2 t x_i + 2 p_i u), and the energy is
    degree * int_0^1 dt int du phidot [(log psi'')'' + mu1 psi''], with
    phidot = d psi_t / dt.  The u-derivatives are the cumulants of q = 2p
    under the softmax weights of the exponents, so no Pluecker identity enters;
    both integrals are adaptive (scipy.integrate.quad) over a finite u-range
    that the tails of the integrand do not reach.
    """
    from scipy.integrate import quad

    q = [2.0 * p for p in powers]
    x = [float(v) for v in x]
    reach = 20.0 + max(x) - min(x)

    def integrand(u, t):
        a = [2.0 * t * xi + qi * u for xi, qi in zip(x, q)]
        top = max(a)
        w = [math.exp(ai - top) for ai in a]
        total = math.fsum(w)
        w = [wi / total for wi in w]
        mean = math.fsum(wi * qi for wi, qi in zip(w, q))
        c = [qi - mean for qi in q]
        k2 = math.fsum(wi * ci**2 for wi, ci in zip(w, c))
        k3 = math.fsum(wi * ci**3 for wi, ci in zip(w, c))
        k4 = math.fsum(wi * ci**4 for wi, ci in zip(w, c)) - 3.0 * k2 * k2
        phidot = 2.0 * math.fsum(wi * xi for wi, xi in zip(w, x))
        return phidot * (k4 / k2 - (k3 / k2) ** 2 + mu1 * k2)

    def slice_at(t):
        return quad(integrand, -reach, reach, args=(t,), limit=200, epsabs=1e-10, epsrel=1e-11)[0]

    return degree * quad(slice_at, 0.0, 1.0, limit=50, epsabs=1e-10, epsrel=1e-11)[0]
