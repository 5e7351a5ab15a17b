"""Explicit variety instances with closed-form Chow forms and discriminants.

Every catalog entry avoids elimination machinery: dual quadrics are adjugate
quadrics, rational-normal-curve discriminants come from Sylvester resultants,
the quadric surface's format-1 hyperdiscriminant is Cayley's 2x2x2
hyperdeterminant, its Chow form is the quadric evaluated on the generalized
cross product of the frame rows, and the Chow form of a rational normal curve
is the resultant of the two binary forms its frame rows restrict to.

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
# Quadrics and their duals
# ---------------------------------------------------------------------------


def _fraction_matrix(Q):
    return [[Fraction(v) for v in row] for row in Q]


def dual_quadric(Q):
    """Dual of the smooth quadric x^T Q x = 0: the adjugate quadric a^T adj(Q) a."""
    Q = _fraction_matrix(Q)
    m = len(Q)
    if any(len(row) != m for row in Q):
        raise KEnergyError("quadric matrix must be square")
    if any(Q[i][j] != Q[j][i] for i in range(m) for j in range(m)):
        raise KEnergyError("quadric matrix must be symmetric")
    one = Fraction(1)
    if laplace_det(Q, one) == 0:
        raise KEnergyError("variety not smooth: quadric matrix is singular")

    def cofactor(i, j):
        minor = [[Q[r][c] for c in range(m) if c != j] for r in range(m) if r != i]
        return (-1) ** (i + j) * laplace_det(minor, one) if minor else one

    # adj(Q)[i][j] is the (j, i) cofactor
    return quadric_poly([[cofactor(j, i) for j in range(m)] for i in range(m)])


def quadric_poly(Q):
    """The quadric x^T Q x as a polynomial on the 1 x m variable matrix."""
    Q = _fraction_matrix(Q)
    m = len(Q)
    terms = {}
    for i in range(m):
        for j in range(m):
            if Q[i][j] == 0:
                continue
            exp = [0] * m
            exp[i] += 1
            exp[j] += 1
            key = (tuple(exp),)
            terms[key] = terms.get(key, Fraction(0)) + Q[i][j]
    return MatrixPoly((1, m), {k: v for k, v in terms.items() if v})


def cayley_hyperdet():
    """Cayley's 2x2x2 hyperdeterminant on the 2x4 variable matrix.

    Column index 2j+k of row i carries the tensor entry a[i][j][k]; the
    classical polynomial has 4 square terms, 6 terms with coefficient -2 and
    2 terms with coefficient +4.
    """
    shape = (2, 4)

    def var(i, j, k):
        return MatrixPoly.variable(shape, i, 2 * j + k)

    a = {(i, j, k): var(i, j, k) for i in (0, 1) for j in (0, 1) for k in (0, 1)}
    squares = (
        a[0, 0, 0] * a[0, 0, 0] * a[1, 1, 1] * a[1, 1, 1]
        + a[0, 0, 1] * a[0, 0, 1] * a[1, 1, 0] * a[1, 1, 0]
        + a[0, 1, 0] * a[0, 1, 0] * a[1, 0, 1] * a[1, 0, 1]
        + a[0, 1, 1] * a[0, 1, 1] * a[1, 0, 0] * a[1, 0, 0]
    )
    pairs = (
        a[0, 0, 0] * a[0, 0, 1] * a[1, 1, 0] * a[1, 1, 1]
        + a[0, 0, 0] * a[0, 1, 0] * a[1, 0, 1] * a[1, 1, 1]
        + a[0, 0, 0] * a[0, 1, 1] * a[1, 0, 0] * a[1, 1, 1]
        + a[0, 0, 1] * a[0, 1, 0] * a[1, 0, 1] * a[1, 1, 0]
        + a[0, 0, 1] * a[0, 1, 1] * a[1, 0, 0] * a[1, 1, 0]
        + a[0, 1, 0] * a[0, 1, 1] * a[1, 0, 0] * a[1, 0, 1]
    )
    diagonals = (
        a[0, 0, 0] * a[0, 1, 1] * a[1, 0, 1] * a[1, 1, 0]
        + a[0, 0, 1] * a[0, 1, 0] * a[1, 0, 0] * a[1, 1, 1]
    )
    return squares + pairs.scale(-2) + diagonals.scale(4)


def generalized_cross(m):
    """Signed maximal minors c_j of the (m-1) x m variable matrix.

    The vector c satisfies A c = 0 row by row (x . c = det of x stacked on A),
    so [c] is the common zero of the m-1 hyperplanes cut by the rows.
    """
    shape = (m - 1, m)
    out = []
    for j in range(m):
        cols = [c for c in range(m) if c != j]
        minor = [[MatrixPoly.variable(shape, r, c) for c in cols] for r in range(m - 1)]
        out.append(laplace_det(minor, MatrixPoly.constant(shape, 1)).scale((-1) ** j))
    return out


def chow_form_hypersurface(q, rows):
    """Chow form of the hypersurface q = 0: the quadric evaluated on the
    generalized cross product of the frame rows.

    q must be a homogeneous quadric on 1 x m variables and rows must be m-1;
    the result is homogeneous of total degree 2(m-1) on the (m-1) x m matrix.
    """
    m = q.shape[1]
    if q.shape[0] != 1 or q.homogeneous_degree() != 2:
        raise KEnergyError("chow_form_hypersurface expects a homogeneous quadric")
    if rows != m - 1:
        raise KEnergyError(f"frame must have {m - 1} rows for a hypersurface in P^{m - 1}")
    cross = generalized_cross(m)
    out = MatrixPoly.zero((m - 1, m))
    for exp, coeff in q.terms():
        i, j = (c for c, e in enumerate(exp[0]) for _ in range(e))
        out = out + (cross[i] * cross[j]).scale(coeff)
    return out


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
    half = Fraction(1, 2)
    Q = [[0, 0, 0, half], [0, 0, -half, 0], [0, -half, 0, 0], [half, 0, 0, 0]]
    chow = normalize_scaling(chow_form_hypersurface(quadric_poly(Q), rows=3))
    return VarietyInstance(
        name="quadric_surface",
        data=data,
        parametrization=((0, 0), (1, 0), (0, 1), (1, 1)),
        discriminants=DiscriminantSet(
            chow=chow,
            hyper={
                1: normalize_scaling(cayley_hyperdet()),
                2: normalize_scaling(dual_quadric(Q)),
            },
        ),
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
