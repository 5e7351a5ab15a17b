"""Integer asymptotic slopes along one-parameter subgroups, numeric slope
fits, and the torus boundedness scan.

Along lambda(t) the energy expands as A_k log|t|^2 + O(1) with the integer
slope A_k = w(v_k) - w(w_k) = sum_i c_i w(Delta_i): the minimal monomial
weights w of the stored polynomials (i = 0 the Chow form) netted by
`energy.energy_sum` with the coefficient vector c.  The slope, the slope fit
and the scan are each that one sum over per-polynomial values.  A weight reads
only the few distinct column-degree vectors of a polynomial
(`pairing.weight_classes`), so the scan is one integer matrix product per
polynomial over all weight vectors at once, and a fit reads A_k and every
sampled energy from the k + 1 tables it builds.  M_k is bounded below
along lambda as |t| -> 0 iff A_k <= 0, so the scan verdict reports the maximal
slope over all enumerated subgroups.  These are the integer subgroups of the
coordinate torus (diagonal in the stored coordinates); the verdict says
nothing about its conjugates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from .energy import energy_sum
from .errors import KEnergyError, ShapeMismatchError
from .pairing import OneParamSubgroup, diagonal_log_ratio, min_weight, weight_classes


def slope_integer(instance, k, lam: OneParamSubgroup) -> int:
    """A_k(lambda) = sum_i c_i w_lambda(Delta_i), exact."""
    return energy_sum(instance, k, lambda i: min_weight(lam, instance.polynomial(i)))


def fit_log_slope(samples, value):
    """Evaluate value(t) at each sample magnitude |t| and fit a line against
    log|t|^2: (slope, largest residual, values).

    Magnitudes must lie in (0, 1), as slopes are read as |t| -> 0, and at least
    two must differ: on one |t| the design matrix has rank 1 and lstsq would
    return its minimum-norm answer as the slope.
    """
    if any(not 0.0 < t < 1.0 for t in samples):
        raise KEnergyError("sample magnitudes must lie in (0, 1)")
    if len(set(samples)) < 2:
        raise KEnergyError("a slope fit needs at least 2 distinct sample magnitudes")
    xs = np.array([2.0 * math.log(t) for t in samples])
    ys = np.array([value(t) for t in samples])
    design = np.vstack([xs, np.ones_like(xs)]).T
    (slope, intercept), *_ = np.linalg.lstsq(design, ys, rcond=None)
    residual = float(np.max(np.abs(ys - (slope * xs + intercept))))
    return float(slope), residual, tuple(float(v) for v in ys)


@dataclass(frozen=True)
class SlopeReport:
    lam: OneParamSubgroup
    a_k: int
    fit_slope: float
    fit_residual: float
    bounded_below: bool
    samples: tuple = ()
    values: tuple = ()


def slope_fit(instance, k, lam: OneParamSubgroup, samples) -> SlopeReport:
    """Least-squares slope of M_k(lambda(t)) against log|t|^2.

    Sample magnitudes must lie in (0, 1); at least 4 are required.  The
    k + 1 weight-class tables are built once and give A_k as well: each class
    chi scales by |t|^(2 <chi, a>) with <chi, a> an exact integer (0 along an
    automorphism) and t^a_j never formed, so t^a_j may lie far outside the
    float range.
    """
    samples = tuple(float(t) for t in samples)
    if len(samples) < 4:
        raise KEnergyError("slope fit needs at least 4 sample magnitudes")
    if len(lam.weights) != instance.N + 1:
        raise ShapeMismatchError(f"one-parameter subgroup has {len(lam.weights)} weights "
                                 f"for {instance.N + 1} columns")
    exact = np.array(lam.weights, dtype=object)  # user weights may exceed int64
    column = exact.astype(float)[:, None]
    tables = []

    def weight(i):  # builds table i on the way, in the order i = 0, ..., k
        degrees, logs = weight_classes(instance.polynomial(i))
        tables.append((degrees @ column, logs))
        return int((degrees @ exact).min())

    a_k = energy_sum(instance, k, weight)
    slope, residual, values = fit_log_slope(samples, lambda t: energy_sum(
        instance, k, lambda i: diagonal_log_ratio(tables[i], [math.log(t)])))
    return SlopeReport(
        lam=lam,
        a_k=a_k,
        fit_slope=slope,
        fit_residual=residual,
        bounded_below=a_k <= 0,
        samples=samples,
        values=values,
    )


# ---------------------------------------------------------------------------
# Torus scan
# ---------------------------------------------------------------------------


def weight_vectors(ncoords, bound):
    """Integer vectors with entries in [-bound, bound] summing to zero, in
    lexicographic order; at bound 0 only lambda = 0 would be scanned."""
    if bound < 1:
        raise KEnergyError(f"weight bound must be at least 1, got {bound}")
    return [vec for vec in product(range(-bound, bound + 1), repeat=ncoords) if sum(vec) == 0]


@dataclass(frozen=True)
class ScanReport:
    k: int
    bound: int
    n_evaluated: int
    max_slope: int
    worst: OneParamSubgroup
    destabilizer_found: bool
    verdict: str


def stability_scan(instance, k, bound) -> ScanReport:
    """Maximal A_k over the coordinate-torus subgroups at the given weight
    bound; ties go to the lexicographically first weight vector.

    With the weight vectors as the rows of V and D_i the weight classes of
    Delta_i, the slopes are sum_i c_i min(V D_i^T) row by row.
    """
    vectors = weight_vectors(instance.N + 1, bound)
    V = np.array(vectors, dtype=np.int64)
    slopes = energy_sum(instance, k, lambda i: (
        V @ weight_classes(instance.polynomial(i))[0].T).min(axis=1))
    worst = int(np.argmax(slopes))  # the first maximum, so the lexicographic tie rule
    max_slope = int(slopes[worst])
    found = max_slope > 0
    verdict = (
        f"destabilizer found on the coordinate torus at bound {bound}"
        if found
        else f"no destabilizer on the coordinate torus at bound {bound}"
    )
    return ScanReport(
        k=k,
        bound=bound,
        n_evaluated=len(vectors),
        max_slope=max_slope,
        worst=OneParamSubgroup(vectors[worst]),
        destabilizer_found=found,
        verdict=verdict,
    )
