"""Graded Chern-class calculus on a product of a variety with a projective space.

Classes are truncated polynomials in three kinds of symbols: c_i (the Chern
classes of the tangent bundle of the n-dimensional factor, written c_i(omega)),
omega (the hyperplane class of the first factor) and omega_FS (the hyperplane
class of the CP^{n-k} factor).  A term is keyed by (i, p, q), standing for
c_i(omega) ^ omega^p ^ omega_FS^q, with exact rational coefficient.

Truncation implements integration-by-dimension: any term with i + p > n or
q > n - k vanishes and is dropped eagerly at each multiplication.  Only one
c_i factor can appear per term (c_0 = 1), which is all the jet-bundle
computation ever produces.
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


class GradedClass:
    """Truncated graded class sum coeff * c_i(omega) ^ omega^p ^ omega_FS^q."""

    __slots__ = ("n", "k", "coefficients")

    def __init__(self, n, k, coefficients=None):
        self.n = int(n)
        self.k = int(k)
        clean = {}
        for (i, p, q), c in (coefficients or {}).items():
            c = Fraction(c)
            if c == 0:
                continue
            if i < 0 or p < 0 or q < 0:
                raise ValueError("negative symbol exponent")
            if i + p > self.n or q > self.n - self.k or i > self.n:
                continue
            clean[(i, p, q)] = clean.get((i, p, q), Fraction(0)) + c
        self.coefficients = {key: c for key, c in clean.items() if c != 0}

    # -- generators --

    @classmethod
    def one(cls, n, k):
        return cls(n, k, {(0, 0, 0): 1})

    @classmethod
    def omega(cls, n, k):
        return cls(n, k, {(0, 1, 0): 1})

    @classmethod
    def omega_fs(cls, n, k):
        return cls(n, k, {(0, 0, 1): 1})

    @classmethod
    def tangent_chern(cls, n, k, i, coefficient=1):
        """coefficient * c_i(omega)."""
        return cls(n, k, {(i, 0, 0): coefficient})

    # -- ring structure --

    def _check_ring(self, other):
        if (self.n, self.k) != (other.n, other.k):
            raise KEnergyError("graded classes live in different truncated rings")

    def __add__(self, other):
        self._check_ring(other)
        out = dict(self.coefficients)
        for key, c in other.coefficients.items():
            out[key] = out.get(key, Fraction(0)) + c
        return GradedClass(self.n, self.k, out)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, scalar):
        return GradedClass(
            self.n, self.k, {key: c * Fraction(scalar) for key, c in self.coefficients.items()}
        )

    def __mul__(self, other):
        self._check_ring(other)
        out = {}
        for (i1, p1, q1), c1 in self.coefficients.items():
            for (i2, p2, q2), c2 in other.coefficients.items():
                if i1 and i2:
                    raise KEnergyError(
                        "product of two higher Chern symbols is not representable"
                    )
                key = (i1 + i2, p1 + p2, q1 + q2)
                out[key] = out.get(key, Fraction(0)) + c1 * c2
        return GradedClass(self.n, self.k, out)

    def __pow__(self, e):
        out = GradedClass.one(self.n, self.k)
        for _ in range(e):
            out = out * self
        return out

    def grade(self, g):
        """Component of total grading i + p + q == g."""
        return GradedClass(
            self.n,
            self.k,
            {key: c for key, c in self.coefficients.items() if sum(key) == g},
        )

    def __eq__(self, other):
        return (
            isinstance(other, GradedClass)
            and (self.n, self.k) == (other.n, other.k)
            and self.coefficients == other.coefficients
        )

    def __repr__(self):
        if not self.coefficients:
            return "GradedClass<0>"
        bits = []
        for (i, p, q), c in sorted(self.coefficients.items()):
            sym = []
            if i:
                sym.append(f"c{i}")
            if p:
                sym.append(f"w^{p}" if p > 1 else "w")
            if q:
                sym.append(f"wFS^{q}" if q > 1 else "wFS")
            bits.append(f"{c}*{'^'.join(sym) if sym else '1'}")
        return f"GradedClass<{' + '.join(bits)}>"


def tensor_line_chern(rank, p, chern_e, c1_l):
    """c_p(E tensor L) = sum_i C(rank-i, p-i) c_i(E) ^ c_1(L)^{p-i}.

    chern_e lists the classes c_0(E), ..., c_p(E); c1_l is a grading-1 class.
    """
    if p > rank:
        raise KEnergyError(f"c_{p} of a rank-{rank} bundle twisted by a line bundle")
    if len(chern_e) < p + 1:
        raise KEnergyError("need chern_e entries for i = 0..p")
    n, k = c1_l.n, c1_l.k
    out = GradedClass(n, k)
    for i in range(p + 1):
        coeff = comb(rank - i, p - i)
        if coeff:
            out = out + (chern_e[i] * c1_l ** (p - i)).scale(coeff)
    return out


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
    omega = GradedClass.omega(n, k)
    line = omega + GradedClass.omega_fs(n, k)  # c_1 of the Segre hyperplane twist
    # c_i(Omega_X) = (-1)^i c_i(omega), rank n
    chern_cotangent = [
        GradedClass.tangent_chern(n, k, i, (-1) ** i) for i in range(n + 1)
    ]
    twisted = GradedClass(n, k)
    for p in range(n + 1):
        twisted = twisted + tensor_line_chern(n, p, chern_cotangent, line)
    euler = (GradedClass.one(n, k) + omega) ** (n - k + 1)
    return (twisted * euler).grade(2 * n - k)


def jet_top_chern_closed_form(n, k):
    """sum_{i=0}^{k} (-1)^i (n-i+1) C(n-i, n-k) c_i(omega) ^ omega^{n-i} ^ omega_FS^{n-k}."""
    if not 1 <= k <= n:
        raise KEnergyError(f"format parameter k={k} out of range 1..{n}")
    coeffs = {}
    for i in range(k + 1):
        c = (-1) ** i * (n - i + 1) * comb(n - i, n - k)
        if c:
            coeffs[(i, n - i, n - k)] = c
    return GradedClass(n, k, coeffs)


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
