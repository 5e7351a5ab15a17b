"""The k-th energy on Bergman metrics, its netted coefficient vector and
moment-map gradient, plus a descent minimizer over SL(N+1, C).

With LR(P) = log(|sigma.P|^2/|P|^2) the log-norm ratio of a stored polynomial,

  M_k(sigma) = sum_{i=1}^{k} (-1)^{i+1} C(n-i, n-k)
                   [ deg(R) LR(Delta^(n-i)) - deg(Delta^(n-i)) LR(R) ]

with R = Delta^(n) the Chow form; `energy_terms` lists the rows of this sum.
They net to one integer vector c (`energy_coefficients`), so
M_k = sum_{i=0}^{k} c_i LR_i with LR_i = LR(Delta^(n-i)), i = 0 the Chow
form.  `energy_sum` forms sum_i c_i value(i) for every quantity built from
M_k: log-norm ratios give the energy, moment matrices its gradient, minimal
weights the slope A_k.  The pair (v_k, w_k) of `build_pair_vectors` is the
paper's tensor form of the same energy, two integer exponent vectors over the
stored polynomials with v_k - w_k = c.  The value at the identity is exactly
zero.  The analytic normalization -(n+1)(n-k+1)V is already folded into the
integer coefficients; the quadrature module uses the same normalization so
slopes match.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .catalog import VarietyInstance
from .chern import comb
from .errors import FormatRangeError, KEnergyError
from .invariants import degree_vector, format_range
from .pairing import GroupElement, dense_form, dense_image, log_norm_ratio, moment_matrix


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


def energy_terms(instance, k) -> tuple:
    """The rows (i, (-1)^{i+1} C(n-i, n-k), deg R, deg Delta^(n-i)) of M_k, i = 1..k."""
    _check_admissible(instance, k)
    n = instance.n
    dv = degree_vector(instance.data, k)
    return tuple((i, (-1) ** (i + 1) * comb(n - i, n - k), dv[0], dv[i]) for i in range(1, k + 1))


def energy_coefficients(instance, k) -> tuple:
    """The integer vector c with M_k = sum_{i=0}^{k} c_i LR(Delta^(n-i)):
    c_i = a_i deg R for i >= 1 and c_0 = -sum_i a_i deg Delta^(n-i), a_i the
    sign-binomial of row i."""
    rows = energy_terms(instance, k)
    return (-sum(a * deg_hyper for _, a, _, deg_hyper in rows),) + tuple(
        a * deg_chow for _, a, deg_chow, _ in rows)


def energy_sum(instance, k, value):
    """sum_{i=0}^{k} c_i value(i), value(i) a float, numpy array or integer
    per stored polynomial Delta^(n-i); taken in the order i = 0, ..., k."""
    return sum(c * value(i) for i, c in enumerate(energy_coefficients(instance, k)))


@dataclass(frozen=True)
class EnergyValue:
    """M_k(sigma) and the log-norm ratios LR_0, ..., LR_k it nets."""

    total: float
    ratios: tuple


def energy_via_formula(instance, sigma, k) -> EnergyValue:
    """M_k(sigma) = sum_i c_i LR_i, with the ratios LR_i."""
    _check_admissible(instance, k)
    ratios = tuple(log_norm_ratio(sigma, instance.polynomial(i)) for i in range(k + 1))
    return EnergyValue(total=energy_sum(instance, k, ratios.__getitem__), ratios=ratios)


# ---------------------------------------------------------------------------
# Directional derivatives and descent
# ---------------------------------------------------------------------------


def _gradient_matrix(instance, sigma, k):
    """G with d/ds M_k(sigma e^{s xi}) at s = 0 equal to 2 Re tr(xi G).

    Write q = sigma . P.  Then d/ds log |(sigma e^{s xi}) . P|^2 is
    2 Re <D q, q>/|q|^2 with D = sum_jc eta_jc L_jc, eta = sigma xi sigma^-1,
    so each stored polynomial contributes one moment matrix (one dense
    substitution).  `energy_sum` nets them into the energy moment W, and
    2 Re sum_jc eta_jc W_jc = 2 Re tr(xi G) with G = sigma^-1 W^T sigma.
    """
    w = energy_sum(instance, k, lambda i: moment_matrix(
        dense_image(sigma, dense_form(instance.polynomial(i))), sigma.size))
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
    from scipy.linalg import expm  # imported where called: scipy is slow to load

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
    from scipy.linalg import expm  # imported where called: scipy is slow to load

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
