"""Explicit variety instances with closed-form Chow forms and discriminants.

Every catalog entry avoids elimination machinery: rational-normal-curve
discriminants come from Sylvester resultants, the Chow form of a rational
normal curve is the resultant of the two binary forms its frame rows restrict
to, and every polynomial of the quadric surface is one Gram determinant per
quadric format.

Coordinate conventions are pinned:

  rational normal d    T(z) = (1, z, ..., z^d), hyperplanes = binary forms;
                       the conic x0*x2 = x1^2 is d = 2
  quadric surface      x0*x3 = x1*x2,   T(u, v) = (1, u, v, u*v); the 2x4
                       variable matrix is read as a 2x2x2 tensor via
                       a[i][j][k] = x[i][2j+k]

Stored discriminants are rescaled to a fixed normalization (largest-magnitude
coefficient +1 when a real positive one exists, else leading graded-lex
coefficient 1).  Energies and weights are invariant under rescaling, so this
only serves file reproducibility.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, replace
from fractions import Fraction

from .chern import hypersurface_mu, rational_curve_profile
from .errors import (
    DegreeMismatchError,
    InvalidInstanceError,
    KEnergyError,
    ShapeMismatchError,
)
from .exactpoly import MatrixPoly, coeff_abs_sq, fraction_str, laplace_det
from .invariants import VarietyData, hyperdiscriminant_degree, format_range


def sylvester_resultant(f, g):
    """Resultant of two polynomials given by ascending coefficient vectors.

    Normalized so that Res(f, g) = lc(g)^{deg f} * prod f(beta) over the roots
    beta of g; concretely the Sylvester determinant with the g rows on top.
    Coefficients may be numbers or MatrixPoly entries (symbolic resultants).
    Formal degrees are len - 1; vanishing leading data is allowed, matching
    the binary-form resultant of possibly degenerate forms.
    """
    if len(f) < 2 or len(g) < 2:
        raise KEnergyError("resultant needs formal degrees >= 1")
    d1, d2 = len(f) - 1, len(g) - 1
    symbolic = [v for v in list(f) + list(g) if isinstance(v, MatrixPoly)]
    one = MatrixPoly.constant(symbolic[0].shape, 1) if symbolic else Fraction(1)
    zero = one - one

    def lift(v):
        return one.scale(v) if symbolic and not isinstance(v, MatrixPoly) else v

    fd = [lift(v) for v in reversed(f)]
    gd = [lift(v) for v in reversed(g)]
    rows = [[zero] * i + gd + [zero] * (d1 - 1 - i) for i in range(d1)]
    rows += [[zero] * i + fd + [zero] * (d2 - 1 - i) for i in range(d2)]
    return laplace_det(rows, one)


def binary_discriminant(d):
    """Discriminant of the degree-d binary form sum a_c z^c, as a polynomial
    on the 1 x (d+1) variable matrix.

    Computed as (-1)^{d(d-1)/2} Res(f, f') / a_d by exact monomial division,
    so Disc has degree 2(d-1) and Disc(z^2 + 1) = -4 under the classical sign.
    """
    if d < 2:
        raise KEnergyError("discriminant needs degree d >= 2")
    shape = (1, d + 1)
    a = [MatrixPoly.variable(shape, 0, c) for c in range(d + 1)]
    fprime = [a[c + 1].scale(c + 1) for c in range(d)]
    res = sylvester_resultant(a, fprime)
    lead_exp = tuple(
        tuple(1 if c == d else 0 for c in range(d + 1)) for _ in range(1)
    )
    sign = (-1) ** (d * (d - 1) // 2)
    return res.divide_by_monomial(lead_exp, 1).scale(sign)


# ---------------------------------------------------------------------------
# Quadrics: one Gram determinant per format
# ---------------------------------------------------------------------------


def gram_det(M, rows):
    """det(A M A^T) on the rows x m variable matrix A, for a square m x m M.

    With M = adj(S) for a smooth quadric X = {x^T S x = 0} in P^{m-1}, this
    vanishes iff S is degenerate on the kernel of A, that is iff the linear
    section of X cut by the rows of A is singular: it is the hyperdiscriminant
    of format m - 1 - rows.  rows = 1 gives the dual quadric, rows = m - 1 the
    Chow form (by complementary minors) and rows = 2 on the quadric surface
    Cayley's 2x2x2 hyperdeterminant.
    """
    m = len(M)
    shape = (rows, m)
    x = [[MatrixPoly.variable(shape, i, c) for c in range(m)] for i in range(rows)]
    zero = MatrixPoly.zero(shape)
    xm = [[sum((xi[a].scale(M[a][b]) for a in range(m) if M[a][b]), zero) for b in range(m)]
          for xi in x]
    gram = [[sum((u * v for u, v in zip(xmi, xj)), zero) for xj in x] for xmi in xm]
    return laplace_det(gram, MatrixPoly.constant(shape, 1))


# ---------------------------------------------------------------------------
# Normalization and the instance catalog
# ---------------------------------------------------------------------------


def normalize_scaling(p: MatrixPoly) -> MatrixPoly:
    """Fixed scaling: largest-magnitude coefficient becomes +1 when a real
    positive one of that magnitude exists, else the graded-lex-first
    coefficient becomes 1."""
    if p.is_zero:
        return p
    mags = {exp: coeff_abs_sq(c) for exp, c in p.term_dict().items()}
    top = max(mags.values())
    for exp, c in p.term_dict().items():
        if mags[exp] == top and isinstance(c, Fraction) and c > 0:
            return p.scale(1 / c)
    return p.scale(1 / p.terms()[0][1])


@dataclass(frozen=True, eq=False)
class DiscriminantSet:
    """Chow form plus the hyperdiscriminants, indexed so hyper[i] lives on the
    (n-i+1) x (N+1) variable matrix (format n-i)."""

    chow: MatrixPoly
    hyper: dict


@dataclass(frozen=True, eq=False)
class VarietyInstance:
    name: str
    data: VarietyData
    parametrization: tuple
    discriminants: DiscriminantSet

    @property
    def n(self):
        return self.data.n

    @property
    def N(self):
        return self.data.N

    def polynomial(self, i):
        """Delta^(n-i): the Chow form for i = 0, else hyper[i]."""
        if i == 0:
            return self.discriminants.chow
        if i not in self.discriminants.hyper:
            raise InvalidInstanceError(
                f"instance '{self.name}' has no stored format-{self.n - i} hyperdiscriminant"
            )
        return self.discriminants.hyper[i]


def validate_instance(instance: VarietyInstance):
    """Check shapes, multihomogeneity (one degree per row, equal across rows)
    and the degree formula for every stored polynomial."""
    data = instance.data
    n, N = data.n, data.N
    if len(instance.parametrization) != N + 1:
        raise InvalidInstanceError("parametrization must list N+1 monomial sections")
    if any(len(e) != n for e in instance.parametrization):
        raise InvalidInstanceError("each section exponent must have length n")
    if tuple(instance.parametrization[0]) != (0,) * n:
        raise InvalidInstanceError("first section must be the constant chart section")
    fr = format_range(data)
    expected = {0: instance.discriminants.chow}
    for i in range(1, n - data.delta + 1):
        expected[i] = instance.polynomial(i)
    for i, poly in expected.items():
        want_shape = (n - i + 1, N + 1)
        if poly.shape != want_shape:
            raise InvalidInstanceError(
                f"format-{n - i} polynomial has shape {poly.shape}, expected {want_shape}"
            )
        if poly.is_zero:
            raise InvalidInstanceError(f"format-{n - i} polynomial is zero")
        row_degrees = {tuple(sum(row) for row in exp) for exp in poly.term_dict()}
        if len(row_degrees) != 1 or len(set(next(iter(row_degrees)))) != 1:
            raise InvalidInstanceError(
                f"format-{n - i} polynomial is not multihomogeneous of equal degree "
                f"in each row: its terms have row degrees {sorted(row_degrees)}"
            )
        deg = sum(row_degrees.pop())
        want = hyperdiscriminant_degree(data, i)
        if deg != want:
            raise DegreeMismatchError(
                f"format-{n - i} polynomial has degree {deg}, formula gives {want}"
            )
    if fr.lo != data.delta or fr.hi != n:
        raise InvalidInstanceError("format range mismatch")
    return True


def _rational_normal_curve_instance(d):
    data = VarietyData(n=1, N=d, d=d, mu=rational_curve_profile(d), delta=0)
    shape = (2, d + 1)
    f0 = [MatrixPoly.variable(shape, 0, c) for c in range(d + 1)]
    f1 = [MatrixPoly.variable(shape, 1, c) for c in range(d + 1)]
    chow = normalize_scaling(sylvester_resultant(f0, f1))
    disc = normalize_scaling(binary_discriminant(d))
    return VarietyInstance(
        name=f"rational_normal_curve({d})",
        data=data,
        parametrization=tuple((c,) for c in range(d + 1)),
        discriminants=DiscriminantSet(chow=chow, hyper={1: disc}),
    )


def _quadric_surface_instance():
    data = VarietyData(n=2, N=3, d=2, mu=hypersurface_mu(2, 2), delta=0)
    # 2(x0*x3 - x1*x2); this S is its own adjugate.  The r = 1 Gram
    # determinant is minus Cayley's hyperdeterminant, whose largest
    # coefficients (+4) share one sign, so normalize_scaling sees that sign;
    # (-1)^r restores Cayley's and is +1 at r = 0, 2.
    S = [[0, 0, 0, 1], [0, 0, -1, 0], [0, -1, 0, 0], [1, 0, 0, 0]]
    chow, hyper_1, hyper_2 = (
        normalize_scaling(gram_det(S, r + 1).scale((-1) ** r)) for r in (2, 1, 0)
    )
    return VarietyInstance(
        name="quadric_surface",
        data=data,
        parametrization=((0, 0), (1, 0), (0, 1), (1, 1)),
        discriminants=DiscriminantSet(chow=chow, hyper={1: hyper_1, 2: hyper_2}),
    )


def build_instance(name):
    """Construct a catalog instance from its name.

    Accepted names: "conic" (rational_normal_curve(2) under its own name),
    "rational_normal_curve(d)" (d >= 2), "quadric_surface" and "user(dir)", a
    saved instance directory.  All degree invariants are checked before
    returning.
    """
    base, arg = name.strip(), None
    if "(" in base and base.endswith(")"):
        base, arg = (part.strip() for part in base[:-1].split("(", 1))
    if base == "user" and arg is not None:
        return load_instance(arg)
    if arg is None and base == "conic":
        instance = replace(_rational_normal_curve_instance(2), name="conic")
    elif arg is None and base == "quadric_surface":
        instance = _quadric_surface_instance()
    elif arg is not None and base == "rational_normal_curve":
        try:
            d = int(arg)
        except ValueError as exc:
            raise InvalidInstanceError(f"'{name}': expected an integer in parentheses") from exc
        if d < 2:
            raise InvalidInstanceError("rational_normal_curve needs degree >= 2")
        instance = _rational_normal_curve_instance(d)
    else:
        raise InvalidInstanceError(f"unknown catalog name '{name}'")
    validate_instance(instance)
    return instance


CATALOG_NAMES = ("conic", "rational_normal_curve(d)", "quadric_surface", "user(path)")


# ---------------------------------------------------------------------------
# Instance directories
# ---------------------------------------------------------------------------


def save_instance(instance: VarietyInstance, outdir):
    os.makedirs(outdir, exist_ok=True)
    meta = {
        "name": instance.name,
        "n": instance.data.n,
        "N": instance.data.N,
        "d": instance.data.d,
        "mu": [fraction_str(m) for m in instance.data.mu],
        "delta": instance.data.delta,
        "parametrization": [list(e) for e in instance.parametrization],
    }
    with open(os.path.join(outdir, "instance.json"), "w") as fh:
        json.dump(meta, fh, sort_keys=True, indent=1)
        fh.write("\n")
    with open(os.path.join(outdir, "chow.json"), "w") as fh:
        json.dump(instance.discriminants.chow.to_json_dict(), fh, sort_keys=True)
        fh.write("\n")
    for i, poly in sorted(instance.discriminants.hyper.items()):
        with open(os.path.join(outdir, f"hyper_{i}.json"), "w") as fh:
            json.dump(poly.to_json_dict(), fh, sort_keys=True)
            fh.write("\n")


def _read_json(fname, parse=None):
    """JSON file contents, optionally parsed; any failure names the file."""
    try:
        with open(fname) as fh:
            data = json.load(fh)
        return data if parse is None else parse(data)
    except (OSError, KeyError, ShapeMismatchError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise InvalidInstanceError(f"cannot read {fname}: {exc!r}") from exc


def load_instance(path) -> VarietyInstance:
    meta = _read_json(os.path.join(path, "instance.json"))
    try:
        n = int(meta["n"])
        data = VarietyData(
            n=n, N=int(meta["N"]), d=int(meta["d"]), mu=meta["mu"],
            delta=int(meta.get("delta", 0)),
        )
        parametrization = tuple(tuple(int(v) for v in e) for e in meta["parametrization"])
    except (KeyError, ValueError, TypeError) as exc:
        raise InvalidInstanceError(f"malformed instance.json: {exc}") from exc
    chow = _read_json(os.path.join(path, "chow.json"), MatrixPoly.from_json_dict)
    hyper = {
        i: _read_json(os.path.join(path, f"hyper_{i}.json"), MatrixPoly.from_json_dict)
        for i in range(1, n - data.delta + 1)
    }
    instance = VarietyInstance(
        name=str(meta.get("name", os.path.basename(str(path)))),
        data=data,
        parametrization=parametrization,
        discriminants=DiscriminantSet(chow=chow, hyper=hyper),
    )
    validate_instance(instance)
    return instance
