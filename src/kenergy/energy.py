"""The k-th energy on Bergman metrics, its netted coefficient vector and
moment-map gradient, plus a descent minimizer over SL(N+1, C).

With LR(P) = log(|sigma.P|^2/|P|^2) the log-norm ratio of a stored polynomial,

  M_k(sigma) = sum_{i=1}^{k} (-1)^{i+1} C(n-i, n-k)
                   [ deg(R) LR(Delta^(n-i)) - deg(Delta^(n-i)) LR(R) ]

with R = Delta^(n) the Chow form.  `combine` states this combination once,
over any per-polynomial value: log-norm ratios give the energy, moment
matrices its gradient, minimal weights the slope A_k, and unit integers the
vector c of `energy_coefficients`, so M_k = sum_i c_i LR(Delta^(n-i)) with
i = 0 the Chow form.  The pair (v_k, w_k) of `build_pair_vectors` is the
paper's tensor form of the same energy, held as two integer exponent vectors
over the stored polynomials with v_k - w_k = c.  The value at the identity
is exactly zero.  The analytic normalization -(n+1)(n-k+1)V is already
folded into the integer coefficients; the quadrature module uses the same
normalization so slopes match.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from .catalog import VarietyInstance
from .chern import comb
from .errors import FormatRangeError, KEnergyError
from .exactpoly import MatrixPoly, right_substitute
from .invariants import degree_vector, format_range
from .pairing import GroupElement, log_norm_ratio


def _check_admissible(instance: VarietyInstance, k: int):
    fr = format_range(instance.data)
    if k not in fr.admissible_k:
        raise FormatRangeError(
            f"M_{k} not computable for '{instance.name}': admissible k are {fr.admissible_k}"
        )


def build_pair_vectors(instance: VarietyInstance, k: int) -> tuple:
    """The pair (v_k, w_k) as two tuples of k+1 exponents, indexed like
    `instance.polynomial(i)` (i = 0 the Chow form R).

    With degrees dv[i] = deg Delta^(n-i) (dv[0] the Chow degree),

      v = R^{sum_j C(n-2j, n-k) dv[2j]}   (x)  prod_j Delta^(n-2j+1) ^ {C(n-2j+1, n-k) dv[0]}
      w = R^{sum_j C(n-2j+1, n-k) dv[2j-1]} (x) prod_j Delta^(n-2j) ^ {C(n-2j, n-k) dv[0]}

    where j runs over 1..floor(k/2) for the even-index pieces and
    1..ceil(k/2) for the odd-index ones; a polynomial absent from a tensor
    has exponent 0 there.  Both tensors must have the same total degree.
    """
    _check_admissible(instance, k)
    n = instance.n
    dv = degree_vector(instance.data, k)
    v = [0] * (k + 1)
    w = [0] * (k + 1)
    for i in range(1, k + 1):
        # odd i: Delta^(n-i) in v, balanced by the Chow form in w; even i: the reverse
        hyper, chow = (v, w) if i % 2 else (w, v)
        hyper[i] = comb(n - i, n - k) * dv[0]
        chow[0] += comb(n - i, n - k) * dv[i]
    if sum(e * d for e, d in zip(v, dv)) != sum(e * d for e, d in zip(w, dv)):
        raise KEnergyError("pair vectors must have equal total degree")
    return tuple(v), tuple(w)


@dataclass(frozen=True)
class TermContribution:
    """Term i of `combine`; value_hyper and value_chow are the values at
    Delta^(n-i) and at the Chow form (log-norm ratios for an energy)."""

    i: int
    coefficient: int  # (-1)^{i+1} C(n-i, n-k)
    deg_chow: int
    deg_hyper: int
    value_hyper: object
    value_chow: object
    contribution: object


@dataclass(frozen=True)
class EnergyBreakdown:
    k: int
    n: int
    terms: tuple
    total: object


def combine(instance, k, value) -> EnergyBreakdown:
    """sum_{i=1}^{k} (-1)^{i+1} C(n-i, n-k) [deg(R) value(i) - deg(Delta^(n-i)) value(0)].

    value(i) is a per-polynomial value of Delta^(n-i), i = 0 the Chow form R:
    a float, a numpy array or an integer.  value(0) is taken first, then
    value(1), ..., value(k), and the terms are added in that order.
    """
    _check_admissible(instance, k)
    n = instance.n
    dv = degree_vector(instance.data, k)
    at_chow = value(0)
    terms = []
    total = None
    for i in range(1, k + 1):
        coeff = (-1) ** (i + 1) * comb(n - i, n - k)
        at_i = value(i)
        contribution = coeff * (dv[0] * at_i - dv[i] * at_chow)
        terms.append(
            TermContribution(
                i=i,
                coefficient=coeff,
                deg_chow=dv[0],
                deg_hyper=dv[i],
                value_hyper=at_i,
                value_chow=at_chow,
                contribution=contribution,
            )
        )
        total = contribution if total is None else total + contribution
    return EnergyBreakdown(k=k, n=n, terms=tuple(terms), total=total)


def energy_coefficients(instance, k) -> tuple:
    """The integer vector c with M_k = sum_{i=0}^{k} c_i LR(Delta^(n-i))."""
    unit = np.eye(k + 1, dtype=np.int64)
    return tuple(int(c) for c in combine(instance, k, lambda i: unit[i]).total)


def energy_via_formula(instance, sigma, k) -> EnergyBreakdown:
    """M_k(sigma) with its per-index breakdown over the log-norm ratios."""
    return combine(instance, k, lambda i: log_norm_ratio(sigma, instance.polynomial(i)))


# ---------------------------------------------------------------------------
# Directional derivatives and descent
# ---------------------------------------------------------------------------


def _moment_matrix(q: MatrixPoly):
    """M[j, c] = <L_jc q, q> / |q|^2 with L_jc = sum_r x[r][j] d/dx[r][c],
    in the factorial-weighted inner product sum_alpha p_alpha conj(q_alpha) / alpha!.

    L_jc sends the term of exponent beta to beta - e_rc + e_rj with the
    factor beta[r][c], so column c of M is one pass over the terms with
    beta[r][c] > 0 for each row r: each exponent is encoded as an integer key
    and its images are looked up among the sorted keys (j = c maps a term
    onto itself).
    """
    exps, coeffs = zip(*q.term_dict().items())
    e = np.array(exps, dtype=np.int64)  # (terms, rows, cols)
    terms, rows, cols = e.shape
    c = np.array([complex(v) for v in coeffs])
    c /= np.abs(c).max()  # M is scale-free; this keeps the products finite
    factorial = np.array([float(math.factorial(a)) for a in range(e.max() + 1)])
    w = 1.0 / factorial[e].prod(axis=(1, 2))
    # base max+2: an image entry max+1 must not carry into the next digit
    base = int(e.max()) + 2
    dtype = np.int64 if base ** (rows * cols) < 2**63 else object
    places = np.array([base**p for p in range(rows * cols)], dtype=dtype).reshape(rows, cols)
    keys = e.reshape(terms, -1).astype(dtype) @ places.ravel()
    order = np.argsort(keys)
    sorted_keys = keys[order]
    m = np.zeros((cols, cols), dtype=complex)
    for r in range(rows):
        for col in range(cols):
            src = np.nonzero(e[:, r, col])[0]
            # images[t, j]: the key of term src[t] with one unit of row r moved to column j
            images = keys[src, None] + (places[r] - places[r, col])
            pos = np.minimum(np.searchsorted(sorted_keys, images), terms - 1)
            target = order[pos]
            paired = np.where(sorted_keys[pos] == images, np.conj(c[target]) * w[target], 0)
            m[:, col] += (c[src] * e[src, r, col]) @ paired
    return m / np.dot(np.abs(c) ** 2, w)


def _gradient_matrix(instance, sigma, k):
    """G with d/ds M_k(sigma e^{s xi}) at s = 0 equal to 2 Re tr(xi G).

    Write q = sigma . P.  Then d/ds log |(sigma e^{s xi}) . P|^2 is
    2 Re <D q, q>/|q|^2 with D = sum_jc eta_jc L_jc, eta = sigma xi sigma^-1,
    so each stored polynomial contributes one moment matrix (one
    substitution).  `combine` turns them into the energy moment W, and
    2 Re sum_jc eta_jc W_jc = 2 Re tr(xi G) with G = sigma^-1 W^T sigma.
    """
    w = combine(
        instance,
        k,
        lambda i: _moment_matrix(right_substitute(instance.polynomial(i), sigma.entries)),
    ).total
    s = sigma.matrix
    return np.linalg.solve(s, w.T @ s)


def directional_derivative(instance, sigma, k, xi) -> float:
    """Analytic d/ds M_k(sigma e^{s xi}) at s = 0."""
    g = _gradient_matrix(instance, sigma, k)
    return 2.0 * float(np.trace(np.asarray(xi, dtype=complex) @ g).real)


def sl_gradient(instance, sigma, k, basis):
    """d/ds M_k(sigma e^{s b}) at s = 0 for each b of a stacked basis (b, N+1, N+1)."""
    return 2.0 * np.einsum("bij,ji->b", basis, _gradient_matrix(instance, sigma, k)).real


def sl_basis(size):
    """Real basis of sl(size, C): elementary shears, i-shears, and (i-)diagonal
    traceless differences."""
    basis = []
    for i in range(size):
        for j in range(size):
            if i == j:
                continue
            e = np.zeros((size, size), dtype=complex)
            e[i, j] = 1.0
            basis.append(e)
            basis.append(1j * e.copy())
    for r in range(size - 1):
        e = np.zeros((size, size), dtype=complex)
        e[r, r] = 1.0
        e[r + 1, r + 1] = -1.0
        basis.append(e)
        basis.append(1j * e.copy())
    return basis


def random_sl(size, rng, scale=0.3):
    """exp of a seeded traceless complex matrix with Gaussian entries of the
    given scale (a numpy array; det 1 up to rounding)."""
    xi = scale * (rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size)))
    xi -= np.trace(xi) / size * np.eye(size)
    return expm(xi)


@dataclass(frozen=True)
class MinimizeTrace:
    """Descent iterates: sigmas, energies and gradient norms, in step order.

    gradient_norms[i] is the norm at sigmas[i]; when the iteration cap ends
    the run, the last sigma has none (one entry fewer than sigmas).
    """

    sigmas: tuple
    energies: tuple
    gradient_norms: tuple
    converged: bool

    @property
    def final_energy(self):
        return self.energies[-1]


def minimize_energy(instance, k, sigma0, max_iters=100, step=0.5, tol=1e-8):
    """Gradient descent with Armijo backtracking, renormalized to det = 1.

    The gradient is the derivative along each sl basis element, read off one
    energy moment per step (one substitution per stored polynomial); the
    trace of energies is nonincreasing by construction.
    """
    _check_admissible(instance, k)
    if not (math.isfinite(step) and step > 0) or max_iters < 0:
        raise KEnergyError(f"descent needs a positive finite step and max_iters >= 0, "
                           f"got step={step}, max_iters={max_iters}")
    sigma = sigma0
    basis = sl_basis(sigma0.size)
    stacked = np.array(basis)
    energies = [energy_via_formula(instance, sigma, k).total]
    sigmas = [sigma]
    grad_norms = []
    converged = False
    for _ in range(max_iters):
        grads = sl_gradient(instance, sigma, k, stacked)
        gnorm = float(np.linalg.norm(grads))
        grad_norms.append(gnorm)
        if gnorm < tol:
            converged = True
            break
        direction = -sum(g * b for g, b in zip(grads, basis))
        current = energies[-1]
        s = step / (1.0 + gnorm)  # keep the first trial step O(1) in the metric
        accepted = False
        while s > 1e-14:
            candidate = GroupElement.from_matrix(
                sigma.matrix @ expm(s * direction), normalize=True
            )
            value = energy_via_formula(instance, candidate, k).total
            if np.isfinite(value) and value <= current - 1e-4 * s * gnorm * gnorm:
                sigma = candidate
                energies.append(value)
                sigmas.append(sigma)
                accepted = True
                break
            s *= 0.5
        if not accepted:
            converged = gnorm < 10 * tol
            break
    return MinimizeTrace(
        sigmas=tuple(sigmas),
        energies=tuple(energies),
        gradient_norms=tuple(grad_norms),
        converged=converged,
    )
