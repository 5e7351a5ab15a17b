import random
from fractions import Fraction

import pytest

from kenergy.catalog import build_instance
from kenergy.energy import random_sl
from kenergy.exactpoly import MatrixPoly
from kenergy.pairing import GroupElement


@pytest.fixture(scope="session")
def conic():
    return build_instance("conic")


@pytest.fixture(scope="session")
def twisted_cubic():
    return build_instance("rational_normal_curve(3)")


@pytest.fixture(scope="session")
def quadric_surface():
    return build_instance("quadric_surface")


def random_rational_sl(size, rng):
    """Product of four elementary shears: exact rational entries, determinant 1.

    Each shear I + c E_ij acts on the right as the column operation
    col_j += c col_i, applied to the exact matrix before the one det check.
    """
    rows = [[Fraction(int(a == b)) for b in range(size)] for a in range(size)]
    denominators = (1, 2, 3)
    for _ in range(4):
        i = rng.randrange(size)
        j = rng.randrange(size)
        while j == i:
            j = rng.randrange(size)
        c = Fraction(rng.randint(-2, 2), rng.choice(denominators))
        for row in rows:
            row[j] += c * row[i]
    return GroupElement.from_matrix(rows)


def random_float_sl(size, rng, scale=0.3):
    """exp of a random traceless complex matrix, renormalized to det 1."""
    return GroupElement.from_matrix(random_sl(size, rng, scale), normalize=True)


def random_exact_poly(shape, rng, max_terms=4, max_exp=2):
    """Small random polynomial with integer coefficients, seeded."""
    terms = {}
    rows, cols = shape
    for _ in range(rng.randint(1, max_terms)):
        exp = tuple(
            tuple(rng.randint(0, max_exp) for _ in range(cols)) for _ in range(rows)
        )
        terms[exp] = terms.get(exp, 0) + rng.randint(-5, 5)
    return MatrixPoly(shape, {e: c for e, c in terms.items() if c})


def seeded(seed):
    return random.Random(seed)
