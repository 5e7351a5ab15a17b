"""Degree bookkeeping for hyperdiscriminants.

All degrees are total degrees in the matrix (Stiefel-style) coordinates
M_{(n-i+1) x (N+1)}: the Chow form of a degree-d n-fold has total degree
(n+1)d there, and the format-(n-k) hyperdiscriminant degree is

    deg = d * sum_{i=0}^{k} (-1)^i (n-i+1) C(n-i, n-k) mu_i,

a positive integer whenever the mu input is consistent.  `mu_from_degrees`
inverts the formula: it recovers mu_k exactly from the degrees of the formats
n, n-1, ..., n-k.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .chern import comb
from .errors import FormatRangeError, KEnergyError


@dataclass(frozen=True)
class VarietyData:
    """Data of a polarized variety; mu_i = (1/V) integral c_i(omega) ^ omega^{n-i}."""

    n: int
    N: int
    d: int
    mu: tuple
    delta: int = 0

    def __post_init__(self):
        object.__setattr__(self, "mu", tuple(Fraction(m) for m in self.mu))
        if len(self.mu) != self.n + 1:
            raise KEnergyError(f"profile needs {self.n + 1} values, got {len(self.mu)}")
        if self.mu[0] != 1:
            raise KEnergyError("mu_0 must equal 1")
        if self.n >= self.N:
            raise KEnergyError("need n < N")
        if self.d < 2:
            raise KEnergyError("nonlinear variety required (d >= 2)")
        if self.delta < 0:
            raise KEnergyError("dual defect is nonnegative")
        if self.n >= 2 and self.delta > self.n - 2:
            raise KEnergyError("dual defect exceeds the n-2 bound")
        if self.delta > self.n:
            raise KEnergyError("empty format range")


def hyperdiscriminant_degree(data: VarietyData, k: int) -> int:
    """Total degree of the format-(n-k) hyperdiscriminant, an exact integer."""
    n = data.n
    if not 0 <= k <= n or n - k < data.delta:
        raise FormatRangeError(
            f"format {n - k} outside existence range [{data.delta}, {n}]"
        )
    total = Fraction(0)
    for i in range(k + 1):
        total += (-1) ** i * (n - i + 1) * comb(n - i, n - k) * data.mu[i]
    total *= data.d
    if total.denominator != 1 or total <= 0:
        raise KEnergyError(
            f"degree formula gave non-positive-integer {total}; mu data inconsistent"
        )
    return int(total)


def degree_vector(data: VarietyData, k: int):
    """Degrees (deg Delta^(n), deg Delta^(n-1), ..., deg Delta^(n-k))."""
    return tuple(hyperdiscriminant_degree(data, i) for i in range(k + 1))


def mu_from_degrees(degs, d, n, k) -> Fraction:
    """Recover mu_k from the degrees (deg Delta^(n), ..., deg Delta^(n-k))."""
    if k > n:
        raise KEnergyError("k exceeds the dimension")
    if len(degs) < k + 1:
        raise KEnergyError("need degrees for i = 0..k")
    total = Fraction(0)
    for i in range(k + 1):
        total += (-1) ** i * comb(n - i, n - k) * Fraction(int(degs[i]), int(d))
    return total / (n - k + 1)


@dataclass(frozen=True)
class FormatRange:
    """Existence range [delta, n] of formats and the computable energy orders."""

    lo: int
    hi: int
    admissible_k: tuple = field(default=())

    def __contains__(self, fmt):
        return self.lo <= fmt <= self.hi


def format_range(data: VarietyData) -> FormatRange:
    """Formats [delta(X), n]; M_k is computable iff n - k >= delta(X)."""
    ks = tuple(k for k in range(1, data.n + 1) if data.n - k >= data.delta)
    return FormatRange(lo=data.delta, hi=data.n, admissible_k=ks)
