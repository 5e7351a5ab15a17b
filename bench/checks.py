"""Checks on the program's answers, written apart from the program.

Each check is a plain function of the values the program returned, so the
tests in ``bench/tests`` can feed it wrong answers.  The references are
properties the mathematics guarantees (invariance under automorphisms of X,
vanishing at the identity, integer slopes, Gauss-Bonnet) or computations made
here from the instance files (minimal monomial weights, exact evaluation of a
Chow form, the closed form of the jet-bundle class).  None of them compares
the three energy evaluators with each other: they share one cache of
log-norm ratios, so their agreement tests only integer bookkeeping.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np

IDENTITY_TOL = 1e-12      # M_k(I) is an exact 0.0 today
INVARIANCE_RTOL = 1e-8    # M_k(sigma rho) = M_k(sigma); holds to ~1e-14 today
UNITARY_TOL = 1e-8        # M_k(U) = 0 for unitary U (Bergman metric = FS metric)
SLOPE_REL = 0.01          # fitted slopes within 1% of A_k (absolute 0.01 at 0)
FD_RTOL = 1e-4            # analytic derivative against central differences
PATH_TOL = 1e-5           # exponential and affine potential paths
GAUSS_BONNET_TOL = 1e-4   # integral of c_1 = 2 on a rational curve
VOLUME_TOL = 1e-5         # integral of omega = deg X
CROSS_LANE_RTOL = 1e-9    # exact-sigma energy against the float lane
NORM_RTOL = 1e-9          # printed squared norm against a sum made here


def identity_is_zero(value):
    return abs(value) <= IDENTITY_TOL


def invariant(m_sigma, m_moved):
    """M_k(sigma rho) = M_k(sigma) for an automorphism rho of X."""
    return abs(m_sigma - m_moved) <= INVARIANCE_RTOL * max(1.0, abs(m_sigma))


def unitary_is_zero(value):
    return abs(value) <= UNITARY_TOL


def slope_within(fit, a_k):
    return abs(fit - a_k) <= max(SLOPE_REL * abs(a_k), SLOPE_REL)


def nonincreasing(before, after):
    return after <= before + 1e-12


def derivative_matches(analytic, finite_difference):
    return abs(analytic - finite_difference) <= FD_RTOL * max(1.0, abs(finite_difference))


def paths_agree(exponential, affine):
    return abs(exponential - affine) <= PATH_TOL


def gauss_bonnet(volume, chern, degree):
    return abs(chern - 2.0) <= GAUSS_BONNET_TOL and abs(volume - degree) <= VOLUME_TOL


def lanes_agree(exact_lane, float_lane):
    return abs(exact_lane - float_lane) <= CROSS_LANE_RTOL * max(1.0, abs(float_lane))


def fitted_slope(samples, values):
    """Least-squares slope of values against log|t|^2."""
    xs = [2.0 * math.log(t) for t in samples]
    return float(np.polyfit(xs, values, 1)[0])


# ---------------------------------------------------------------------------
# Polynomial files, read here without the program's polynomial class
# ---------------------------------------------------------------------------


def parse_terms(poly_json):
    """[(exponent rows, re, im)] from the JSON term format."""
    return [
        (tuple(tuple(int(e) for e in row) for row in term["exp"]),
         Fraction(term["re"]), Fraction(term["im"]))
        for term in poly_json["terms"]
    ]


def total_degree(terms):
    degrees = {sum(sum(row) for row in exp) for exp, _, _ in terms}
    if len(degrees) != 1:
        raise ValueError("polynomial is not homogeneous")
    return degrees.pop()


def column_degrees(terms):
    """Distinct column-degree vectors, one row each."""
    return np.array(sorted({tuple(int(v) for v in np.sum(exp, axis=0))
                            for exp, _, _ in terms}), dtype=np.int64)


def norm_sq(terms):
    """sum |c|^2 / alpha! over terms, alpha! over every matrix entry."""
    total = Fraction(0)
    for exp, re, im in terms:
        weight = 1
        for row in exp:
            for e in row:
                weight *= math.factorial(e)
        total += (re * re + im * im) / weight
    return float(total)


def evaluate_exact(terms, frame):
    """(real part, imaginary part) of the polynomial at a rational frame."""
    re_sum = Fraction(0)
    im_sum = Fraction(0)
    for exp, re, im in terms:
        mono = Fraction(1)
        for row, frow in zip(exp, frame):
            for e, x in zip(row, frow):
                if e:
                    mono *= x ** e
        re_sum += re * mono
        im_sum += im * mono
    return re_sum, im_sum


def frame_through(point, rows, rng):
    """Rational frame of hyperplanes that all contain ``point`` (point[0] = 1).

    Each row starts from random nonzero rationals, so that no monomial of a
    changed coefficient is lost to a zero entry; its first entry is then set
    so that the row annihilates the point."""
    frame = []
    for _ in range(rows):
        row = [Fraction(int(rng.choice([-1, 1]) * rng.integers(1, 10)), int(rng.integers(1, 4)))
               for _ in point]
        row[0] -= sum(a * p for a, p in zip(row, point))
        frame.append(row)
    return frame


def chow_vanishes_on_x(terms, points, rows, expected_degree, rng):
    """A Chow form is homogeneous of degree (n+1) deg X, nonzero, and vanishes
    exactly at every frame whose hyperplanes share a point of X."""
    if not terms or total_degree(terms) != expected_degree:
        return False
    for point in points:
        if evaluate_exact(terms, frame_through(point, rows, rng)) != (0, 0):
            return False
    return True


# ---------------------------------------------------------------------------
# Integer slopes by brute-force minimal weights
# ---------------------------------------------------------------------------


def weight_vectors(ncoords, bound):
    """Every integer vector with entries in [-bound, bound] summing to 0."""
    vectors = [v for v in itertools.product(range(-bound, bound + 1), repeat=ncoords)
               if sum(v) == 0]
    return np.array(vectors, dtype=np.int64).reshape(len(vectors), ncoords)


def slopes(polys, n, k, lambdas):
    """A_k at each row of ``lambdas`` from the energy formula

        A_k = sum_{i=1}^{k} (-1)^(i+1) C(n-i, n-k) [deg R w(Delta_i) - deg Delta_i w(R)]

    with w the minimal weight <column degrees, lambda> over terms and
    polys[0] = R the Chow form, polys[i] the i-th hyperdiscriminant."""
    lambdas = np.asarray(lambdas, dtype=np.int64)
    weights = [np.min(column_degrees(p) @ lambdas.T, axis=0) for p in polys]
    degrees = [total_degree(p) for p in polys]
    total = np.zeros(len(lambdas), dtype=np.int64)
    for i in range(1, k + 1):
        coeff = (-1) ** (i + 1) * math.comb(n - i, n - k)
        total += coeff * (degrees[0] * weights[i] - degrees[i] * weights[0])
    return total


def max_slope(polys, n, k, bound):
    """(max A_k, number of vectors) over the scan's weight box."""
    ncoords = len(polys[0][0][0][0])  # columns of the first term's exponent
    lambdas = weight_vectors(ncoords, bound)
    values = slopes(polys, n, k, lambdas)
    return int(values.max()), len(lambdas)


def jet_class_coefficients(n, k):
    """Closed form of the top Chern class of the jet bundle: the coefficient
    of c_i w^(n-i) wFS^(n-k) is (-1)^i (n-i+1) C(n-i, n-k)."""
    return {i: (-1) ** i * (n - i + 1) * math.comb(n - i, n - k)
            for i in range(n + 1) if math.comb(n - i, n - k)}
