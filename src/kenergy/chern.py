"""Chern classes on a product of a variety with a projective space, and the
mu tuples of the catalog varieties.

A class is a dict {(i, p, q): coefficient}, the key standing for
c_i(omega) ^ omega^p ^ omega_FS^q: c_i(omega) a Chern class of the tangent
bundle of the n-dimensional factor, omega its hyperplane class and omega_FS
that of the CP^{n-k} factor.  `_times` multiplies two classes and drops every
term with i + p > n or q > n - k, which integrates to zero by dimension; a
term carries at most one c_i factor (c_0 = 1), which is all the jet-bundle
chain ever forms.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import KEnergyError


def comb(n: int, k: int) -> int:
    """Binomial coefficient, zero outside 0 <= k <= n."""
    if k < 0 or n < 0 or k > n:
        return 0
    return math.comb(n, k)


class JetClass(dict):
    """The class {(i, p, q): coefficient} that the two jet-class routines return."""

    @property
    def coefficients(self):
        """The dict itself, under the name bench/tests/test_checks.py reads."""
        return self


def _times(a, b, n, k):
    """The product of two classes, truncated for (n, k); zero terms dropped."""
    out = {}
    for (i1, p1, q1), c1 in a.items():
        for (i2, p2, q2), c2 in b.items():
            if i1 and i2:
                raise KEnergyError("product of two higher Chern symbols is not representable")
            i, p, q = i1 + i2, p1 + p2, q1 + q2
            if i + p <= n and q <= n - k:
                out[i, p, q] = out.get((i, p, q), 0) + c1 * c2
    return {key: c for key, c in out.items() if c}


def tensor_line_chern(rank, p, chern_e, c1_l, n, k):
    """c_p(E tensor L) = sum_i C(rank-i, p-i) c_i(E) ^ c_1(L)^{p-i}, truncated for (n, k).

    chern_e lists the classes c_0(E), ..., c_p(E); c1_l is a grading-1 class.
    """
    if p > rank:
        raise KEnergyError(f"c_{p} of a rank-{rank} bundle twisted by a line bundle")
    if len(chern_e) < p + 1:
        raise KEnergyError("need chern_e entries for i = 0..p")
    out = {}
    for i in range(p + 1):
        term = chern_e[i]
        for _ in range(p - i):
            term = _times(term, c1_l, n, k)
        for key, c in term.items():
            out[key] = out.get(key, 0) + comb(rank - i, p - i) * c
    return {key: c for key, c in out.items() if c}


def derive_jet_top_chern(n, k):
    """Top Chern class c_{2n-k} of the 1-jet bundle of O(1) on X x CP^{n-k}.

    Symbolically executes the bundle factorization chain: the jet sequence
    gives c(J_1) = c(Omega^{1,0}(1)) ^ c(O(1)); the product splitting and the
    twisted Euler sequence of CP^{n-k} turn this into

        c(J_1) = c(Omega_X tensor (O_X(1) tensor O_{CP^{n-k}}(1))) ^ (1 + omega)^{n-k+1},

    whose degree-(2n-k) part is returned (the c_p of a twist is expanded with
    tensor_line_chern).
    """
    if not 1 <= k <= n:
        raise KEnergyError(f"format parameter k={k} out of range 1..{n}")
    line = {(0, 1, 0): 1, (0, 0, 1): 1}  # c_1 of the Segre hyperplane twist
    chern_cotangent = [{(i, 0, 0): (-1) ** i} for i in range(n + 1)]  # c_i(Omega_X), rank n
    twisted = {}
    for p in range(n + 1):
        for key, c in tensor_line_chern(n, p, chern_cotangent, line, n, k).items():
            twisted[key] = twisted.get(key, 0) + c
    total = twisted
    for _ in range(n - k + 1):  # the Euler factor (1 + omega)^{n-k+1}
        total = _times(total, {(0, 0, 0): 1, (0, 1, 0): 1}, n, k)
    return JetClass((key, c) for key, c in total.items() if sum(key) == 2 * n - k)


def jet_top_chern_closed_form(n, k):
    """sum_{i=0}^{k} (-1)^i (n-i+1) C(n-i, n-k) c_i(omega) ^ omega^{n-i} ^ omega_FS^{n-k}."""
    if not 1 <= k <= n:
        raise KEnergyError(f"format parameter k={k} out of range 1..{n}")
    return JetClass(((i, n - i, n - k), (-1) ** i * (n - i + 1) * comb(n - i, n - k))
                    for i in range(k + 1))


def hypersurface_mu(n, d):
    """Normalized Chern numbers (mu_0, ..., mu_n) of a smooth degree-d
    hypersurface in CP^{n+1}.

    From adjunction, c(T_X) = (1+h)^{n+2}/(1+dh) restricted to X, so
    mu_k = sum_{j<=k} C(n+2, k-j) (-d)^j.
    """
    if n < 1 or d < 2:
        raise KEnergyError("need n >= 1 and d >= 2")
    return tuple(
        Fraction(sum(comb(n + 2, k - j) * (-d) ** j for j in range(k + 1)))
        for k in range(n + 1)
    )


def rational_curve_profile(d):
    """Normalized Chern numbers (mu_0, mu_1) of the degree-d rational normal
    curve in CP^d."""
    if d < 2:
        raise KEnergyError("need degree d >= 2")
    return (Fraction(1), Fraction(2, d))
