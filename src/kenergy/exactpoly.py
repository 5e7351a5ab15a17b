"""Exact sparse polynomials in the entries of a matrix of indeterminates.

A polynomial lives on an m x c matrix of variables x[r][c] and is stored as a
dictionary mapping exponent matrices to coefficients:

  terms = { ((e00, e01, ...), (e10, e11, ...), ...): coefficient, ... }

Exponent matrices are tuples of row tuples (row-major), one nonnegative integer
per variable.  Coefficients are either Fraction (exact, the default) or Python
complex (Python's numeric tower turns Fraction * complex into complex).  A
polynomial never stores zero coefficients and never mixes the two coefficient
kinds; the zero polynomial has an empty term dict but keeps its shape.

The group SL(c, C) acts by substituting each row of the variable matrix with its
image under right multiplication: (g . p)(A) := p(A @ g).  Composing two
substitutions therefore multiplies on the left, rs(rs(p, g), h) == rs(p, h @ g),
which is exactly what makes g . (h . p) == (g @ h) . p a left action.  It is
the exact lane, and the tests' reference for the dense lane of kenergy.pairing.

Canonical term order is graded lexicographic on the flattened exponent matrix;
iteration, printing and JSON output follow it.  All values are immutable
after construction, so everything here is safe to share across threads.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ShapeMismatchError


def as_coefficient(value):
    """Normalize a scalar to the coefficient universe: int and Fraction to
    Fraction (exact), float and complex to complex (floating)."""
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    if isinstance(value, (float, complex)):
        return complex(value)
    raise TypeError(f"unsupported coefficient type {type(value).__name__}")


def coeff_abs_sq(c):
    """|c|^2: exact Fraction for Fraction, float for complex."""
    return c.real * c.real + c.imag * c.imag


def _term_key(exp):
    return (sum(x for row in exp for x in row), tuple(x for row in exp for x in row))


class MatrixPoly:
    """Polynomial in the entries of an m x c variable matrix (immutable)."""

    __slots__ = ("shape", "_terms")

    def __init__(self, shape, terms=None):
        m, c = int(shape[0]), int(shape[1])
        if m < 1 or c < 1:
            raise ShapeMismatchError(f"invalid variable-matrix shape {shape}")
        clean = {}
        for exp, coeff in (terms or {}).items():
            coeff = as_coefficient(coeff)
            if not coeff:
                continue
            exp = tuple(tuple(int(e) for e in row) for row in exp)
            if len(exp) != m or any(len(row) != c for row in exp):
                raise ShapeMismatchError(f"exponent matrix does not match shape {(m, c)}")
            if any(e < 0 for row in exp for e in row):
                raise ValueError("negative exponent")
            if exp in clean:
                s = clean[exp] + coeff
                if s:
                    clean[exp] = s
                else:
                    del clean[exp]
            else:
                clean[exp] = coeff
        object.__setattr__(self, "shape", (m, c))
        object.__setattr__(self, "_terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("MatrixPoly is immutable")

    # -- constructors --

    @classmethod
    def zero(cls, shape):
        return cls(shape, {})

    @classmethod
    def constant(cls, shape, value):
        exp = tuple((0,) * shape[1] for _ in range(shape[0]))
        return cls(shape, {exp: value})

    @classmethod
    def variable(cls, shape, row, col):
        """The single variable x[row][col]."""
        exp = tuple(
            tuple(1 if (r == row and c == col) else 0 for c in range(shape[1]))
            for r in range(shape[0])
        )
        return cls(shape, {exp: 1})

    # -- basic queries --

    def terms(self):
        """Terms in canonical (graded lexicographic) order."""
        return sorted(self._terms.items(), key=lambda kv: _term_key(kv[0]))

    def term_dict(self):
        return dict(self._terms)

    @property
    def is_zero(self):
        return not self._terms

    @property
    def is_exact(self):
        return all(isinstance(c, Fraction) for c in self._terms.values())

    def num_terms(self):
        return len(self._terms)

    def total_degree(self):
        if not self._terms:
            return 0
        return max(sum(x for row in exp for x in row) for exp in self._terms)

    def homogeneous_degree(self):
        """Common total degree of all terms, or None if inhomogeneous/zero."""
        if not self._terms:
            return None
        degs = {sum(x for row in exp for x in row) for exp in self._terms}
        return degs.pop() if len(degs) == 1 else None

    def __eq__(self, other):
        if not isinstance(other, MatrixPoly):
            return NotImplemented
        return self.shape == other.shape and self._terms == other._terms

    def __repr__(self):
        if self.is_zero:
            return f"MatrixPoly{self.shape}<0>"
        parts = []
        for exp, coeff in self.terms()[:6]:
            mono = "*".join(
                f"x{r}{c}" + (f"^{e}" if e > 1 else "")
                for r, row in enumerate(exp)
                for c, e in enumerate(row)
                if e
            )
            parts.append(f"({coeff}){mono or '1'}")
        tail = " + ..." if self.num_terms() > 6 else ""
        return f"MatrixPoly{self.shape}<{' + '.join(parts)}{tail}>"

    # -- ring operations --

    def _require_same_shape(self, other):
        if self.shape != other.shape:
            raise ShapeMismatchError(f"shapes {self.shape} and {other.shape} differ")

    def __add__(self, other):
        if not isinstance(other, MatrixPoly):
            return NotImplemented
        self._require_same_shape(other)
        out = dict(self._terms)
        for exp, coeff in other._terms.items():
            s = out.get(exp, 0) + coeff
            if s:
                out[exp] = s
            else:
                out.pop(exp, None)
        return MatrixPoly(self.shape, out)

    def __neg__(self):
        return MatrixPoly(self.shape, {e: -c for e, c in self._terms.items()})

    def __sub__(self, other):
        if not isinstance(other, MatrixPoly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, MatrixPoly):
            return NotImplemented
        self._require_same_shape(other)
        out = {}
        for ea, ca in self._terms.items():
            for eb, cb in other._terms.items():
                exp = tuple(
                    tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(ea, eb)
                )
                s = out.get(exp, 0) + ca * cb
                if s:
                    out[exp] = s
                else:
                    out.pop(exp, None)
        return MatrixPoly(self.shape, out)

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = MatrixPoly.constant(self.shape, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def scale(self, scalar):
        scalar = as_coefficient(scalar)
        if not scalar:
            return MatrixPoly.zero(self.shape)
        return MatrixPoly(self.shape, {e: c * scalar for e, c in self._terms.items()})

    def divide_by_monomial(self, exp, coeff):
        """Exact division by coeff * x^exp; raises if any term is not divisible."""
        exp = tuple(tuple(int(e) for e in row) for row in exp)
        coeff = as_coefficient(coeff)
        out = {}
        for term_exp, c in self._terms.items():
            new = []
            for row_t, row_d in zip(term_exp, exp):
                row = tuple(a - b for a, b in zip(row_t, row_d))
                if any(e < 0 for e in row):
                    raise ValueError("monomial division is not exact")
                new.append(row)
            out[tuple(new)] = c / coeff
        return MatrixPoly(self.shape, out)

    # -- JSON interchange (exact polynomials only) --

    def to_json_dict(self):
        if not self.is_exact:
            raise ValueError("only exact polynomials are serialized to JSON")
        terms = []
        for exp, coeff in self.terms():
            terms.append(
                {
                    "exp": [list(row) for row in exp],
                    "re": fraction_str(coeff),
                    "im": "0",
                }
            )
        return {"rows": self.shape[0], "cols": self.shape[1], "terms": terms}

    @classmethod
    def from_json_dict(cls, data):
        shape = (int(data["rows"]), int(data["cols"]))
        terms = {}
        for t in data["terms"]:
            exp = tuple(tuple(int(e) for e in row) for row in t["exp"])
            if Fraction(t["im"]):
                raise ValueError(f"coefficient of {t['exp']} has imaginary part {t['im']}")
            terms[exp] = Fraction(t["re"])
        return cls(shape, terms)


def fraction_str(f: Fraction) -> str:
    """'p' or 'p/q', the exact rational format of the JSON files."""
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def laplace_det(rows, one):
    """Determinant of a nonempty square matrix over any exact ring.

    Entries may be MatrixPoly or Fraction values; `one` is the unit of their
    ring and zero is one - one.  Laplace expansion along rows, memoized on
    the surviving column set, costs O(2^size) subset states instead of size!;
    zero entries and zero minors are skipped.
    """
    size = len(rows)
    if size == 0 or any(len(row) != size for row in rows):
        raise ShapeMismatchError("determinant needs a nonempty square matrix")
    zero = one - one
    memo = {}

    def minor(cols):
        if not cols:
            return one
        if cols in memo:
            return memo[cols]
        r = size - len(cols)
        acc = zero
        for idx, c in enumerate(cols):
            entry = rows[r][c]
            if entry == zero:
                continue
            sub = minor(cols[:idx] + cols[idx + 1:])
            if sub == zero:
                continue
            term = entry * sub
            acc = acc + term if idx % 2 == 0 else acc - term
        memo[cols] = acc
        return acc

    return minor(tuple(range(size)))


# ---------------------------------------------------------------------------
# Group action by right multiplication on the variable matrix
# ---------------------------------------------------------------------------


def right_substitute(poly: MatrixPoly, g) -> MatrixPoly:
    """Apply the substitution A -> A @ g, i.e. (g . p)(A) := p(A @ g).

    Preserves total degree and homogeneity.  Composition multiplies on the
    left: right_substitute(right_substitute(p, g), h) == right_substitute(p, h @ g).
    """
    m, cols = poly.shape
    entries = [[as_coefficient(v) for v in row] for row in g]
    if len(entries) != cols or any(len(r) != cols for r in entries):
        raise ShapeMismatchError(
            f"group element must be {cols}x{cols} for a polynomial on {poly.shape}"
        )
    if poly.is_zero:
        return poly
    out = poly._terms
    # forms[c]: the linear form x_c -> sum_j g[j][c] x_j as its (j, g[j][c]) pairs
    forms = [[(j, entries[j][c]) for j in range(cols) if entries[j][c]] for c in range(cols)]
    unit = (0,) * cols
    images = {unit: [(unit, 1)]}  # row monomial -> its image, shared by all rows
    for r in range(m):
        nxt = {}
        for exp, coeff in out.items():
            image = images.get(exp[r]) or _row_image(exp[r], forms, images)
            head, tail = exp[:r], exp[r + 1:]
            for vec, vc in image:
                key = head + (vec,) + tail
                s = nxt.get(key)
                nxt[key] = coeff * vc if s is None else s + coeff * vc
        out = {exp: c for exp, c in nxt.items() if c}
    return MatrixPoly(poly.shape, out)


def _row_image(row, forms, images):
    """Image of the row monomial prod_c x_c^row[c] under the linear forms.

    The factors are walked in column order; each prefix monomial's image is
    the previous prefix's image times one linear form, and every prefix is
    memoized in `images`.
    """
    prefix = (0,) * len(row)
    for c, e in enumerate(row):
        for _ in range(e):
            longer = prefix[:c] + (prefix[c] + 1,) + prefix[c + 1:]
            if longer not in images:
                acc = {}
                for vec, coeff in images[prefix]:
                    for j, gval in forms[c]:
                        key = vec[:j] + (vec[j] + 1,) + vec[j + 1:]
                        s = acc.get(key)
                        acc[key] = coeff * gval if s is None else s + coeff * gval
                images[longer] = [(vec, v) for vec, v in acc.items() if v]
            prefix = longer
    return images[prefix]


def lie_derivative(poly: MatrixPoly, xi) -> MatrixPoly:
    """d/ds p(A @ exp(s*xi)) at s = 0, as a polynomial of the same degree.

    This is the first-order substitution generator: the operator
    sum_{j,c} xi[j][c] * x[r][j] d/dx[r][c] summed over rows r.
    """
    m, cols = poly.shape
    xi_rows = [list(row) for row in xi]
    if len(xi_rows) != cols or any(len(r) != cols for r in xi_rows):
        raise ShapeMismatchError("direction matrix has wrong shape")
    entries = [[as_coefficient(v) for v in row] for row in xi_rows]
    out = {}
    for exp, coeff in poly._terms.items():
        for r in range(m):
            row = exp[r]
            for c, e in enumerate(row):
                if not e:
                    continue
                for j in range(cols):
                    w = entries[j][c]
                    if not w:
                        continue
                    new_row = list(row)
                    new_row[c] -= 1
                    new_row[j] += 1
                    new_exp = exp[:r] + (tuple(new_row),) + exp[r + 1:]
                    s = out.get(new_exp, 0) + coeff * w * e
                    if s:
                        out[new_exp] = s
                    else:
                        out.pop(new_exp, None)
    return MatrixPoly(poly.shape, out)

