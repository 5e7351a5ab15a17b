import json
from fractions import Fraction

import pytest

from kenergy.catalog import build_instance
from kenergy.errors import ShapeMismatchError
from kenergy.exactpoly import (
    MatrixPoly,
    laplace_det,
    lie_derivative,
    right_substitute,
)
from kenergy.pairing import weight_classes

from conftest import random_exact_poly, random_rational_sl, seeded
from oracles import evaluate

SHAPE = (1, 3)


def var(c, shape=SHAPE):
    return MatrixPoly.variable(shape, 0, c)


@pytest.fixture
def conic_disc():
    a0, a1, a2 = var(0), var(1), var(2)
    return a1 * a1 - (a0 * a2).scale(4)


def test_sub_cancellation(conic_disc):
    a0, a1, a2 = var(0), var(1), var(2)
    diff = a1 * a1 - conic_disc
    assert diff == (a0 * a2).scale(4)


def test_difference_of_squares():
    a0, a1 = var(0), var(1)
    assert (a0 + a1) * (a0 - a1) == a0 * a0 - a1 * a1


def test_ring_operations(conic_disc):
    a0, a1, a2 = var(0), var(1), var(2)
    assert a1 * a1 - conic_disc == (a0 * a2).scale(4)
    assert (a0 + a1) * (a0 - a1) == a0 * a0 - a1 * a1
    assert a0.scale(3) == a0 + a0 + a0
    assert (a0 + a1) - a1 == a0


def test_laplace_det_vandermonde():
    def vandermonde(xs):
        return [[x ** j for j in range(len(xs))] for x in xs]

    def product_of_differences(xs):
        out = 1
        for i in range(len(xs)):
            for j in range(i + 1, len(xs)):
                out = out * (xs[j] - xs[i])
        return out

    fractions = [Fraction(-3, 2), Fraction(0), Fraction(1, 3), Fraction(2), Fraction(5, 7)]
    for size in range(1, len(fractions) + 1):
        got = laplace_det(vandermonde(fractions[:size]), Fraction(1))
        assert got == product_of_differences(fractions[:size])
    assert laplace_det(vandermonde(fractions[:2] + fractions[:1]), Fraction(1)) == 0
    with pytest.raises(ShapeMismatchError):
        laplace_det([[Fraction(1), Fraction(2)]], Fraction(1))


def test_laplace_det_of_variable_matrix():
    shape = (2, 2)
    x = [[MatrixPoly.variable(shape, r, c) for c in range(2)] for r in range(2)]
    det = laplace_det(x, MatrixPoly.constant(shape, 1))
    assert det == x[0][0] * x[1][1] - x[0][1] * x[1][0]


def test_square_of_conic_disc(conic_disc):
    # (a1^2 - 4 a0 a2)^2 = a1^4 - 8 a0 a1^2 a2 + 16 a0^2 a2^2
    sq = conic_disc * conic_disc
    a0, a1, a2 = var(0), var(1), var(2)
    expected = (
        a1**4 - (a0 * a1 * a1 * a2).scale(8) + (a0 * a0 * a2 * a2).scale(16)
    )
    assert sq == expected
    assert sq.num_terms() == 3
    assert sq.homogeneous_degree() == 4


def test_shape_mismatch_raises(conic_disc):
    other = MatrixPoly.variable((1, 4), 0, 0)
    with pytest.raises(ShapeMismatchError):
        conic_disc + other
    with pytest.raises(ShapeMismatchError):
        evaluate(conic_disc, [[1, 0]])


def test_substitute_identity(conic_disc):
    assert right_substitute(conic_disc, [[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == conic_disc


def test_substitute_torus_invariance(conic_disc):
    g = [[2, 0, 0], [0, 1, 0], [0, 0, Fraction(1, 2)]]
    assert right_substitute(conic_disc, g) == conic_disc


def test_substitute_torus_scaling(conic_disc):
    g = [[2, 0, 0], [0, 2, 0], [0, 0, Fraction(1, 4)]]
    a0, a1, a2 = var(0), var(1), var(2)
    assert right_substitute(conic_disc, g) == (a1 * a1).scale(4) - (a0 * a2).scale(2)


def test_substitute_preserves_degree_and_homogeneity(conic_disc):
    rng = seeded(11)
    g = [[Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(3)] for _ in range(3)]
    g[0][0] += 1  # keep it generically invertible
    image = right_substitute(conic_disc, g)
    assert image.homogeneous_degree() == conic_disc.homogeneous_degree() == 2


def test_substitution_is_an_action(conic_disc):
    # composing substitutions multiplies on the left: (g then h) == h @ g
    rng = seeded(5)

    def rand_matrix():
        return [
            [Fraction(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(3)]
            for _ in range(3)
        ]

    for _ in range(10):
        g, h = rand_matrix(), rand_matrix()
        hg = [
            [sum(h[i][m] * g[m][j] for m in range(3)) for j in range(3)]
            for i in range(3)
        ]
        lhs = right_substitute(right_substitute(conic_disc, g), h)
        assert lhs == right_substitute(conic_disc, hg)


def test_evaluate_compatible_with_substitution():
    rng = seeded(7)
    for _ in range(10):
        p = random_exact_poly((2, 3), rng)
        if p.is_zero:
            continue
        g = [
            [Fraction(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(3)]
            for _ in range(3)
        ]
        a = [
            [Fraction(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(3)]
            for _ in range(2)
        ]
        ag = [
            [sum(Fraction(a[r][m]) * g[m][c] for m in range(3)) for c in range(3)]
            for r in range(2)
        ]
        assert evaluate(right_substitute(p, g), a) == evaluate(p, ag)


def _float_matrix(rng, rows, cols):
    return [[complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(cols)]
            for _ in range(rows)]


def _times(a, g):
    return [[sum(a[r][m] * g[m][c] for m in range(len(g))) for c in range(len(g[0]))]
            for r in range(len(a))]


def test_float_substitution_matches_evaluation():
    # random inhomogeneous polynomials on 2 x 3 variables at complex g
    rng = seeded(17)
    for _ in range(10):
        p = random_exact_poly((2, 3), rng, max_terms=6, max_exp=3)
        if p.is_zero:
            continue
        g, a = _float_matrix(rng, 3, 3), _float_matrix(rng, 2, 3)
        want = evaluate(p, _times(a, g))
        got = evaluate(right_substitute(p, g), a)
        assert abs(got - want) <= 1e-10 * max(1.0, abs(want))


def test_substitution_by_a_singular_matrix():
    # column 1 of g is zero, so x_1 maps to 0 and every term holding it vanishes
    rng = seeded(19)
    exact = [[Fraction(1, 2), 0, 3], [2, 0, Fraction(-1, 3)], [1, 0, 1]]
    floating = [[complex(v) for v in row] for row in exact]
    for _ in range(10):
        p = random_exact_poly((2, 3), rng, max_terms=6)
        if p.is_zero:
            continue
        a = [[Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(3)]
             for _ in range(2)]
        assert evaluate(right_substitute(p, exact), a) == evaluate(p, _times(a, exact))
        want = complex(evaluate(p, _times(a, exact)))
        got = evaluate(right_substitute(p, floating), a)
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


def test_substitution_is_an_action_on_the_quadric_chow_form(quadric_surface):
    chow = quadric_surface.discriminants.chow
    assert chow.shape[0] == 3
    rng = seeded(23)
    for _ in range(2):
        g = [list(row) for row in random_rational_sl(4, rng).entries]
        h = [list(row) for row in random_rational_sl(4, rng).entries]
        lhs = right_substitute(right_substitute(chow, g), h)
        assert lhs == right_substitute(chow, _times(h, g))


@pytest.mark.parametrize("name", ["conic", "rational_normal_curve(3)",
                                  "rational_normal_curve(4)", "quadric_surface"])
def test_exact_and_floating_lanes_agree_term_by_term(name):
    instance = build_instance(name)
    sigma = random_rational_sl(instance.N + 1, seeded(29))
    floating = [[complex(v) for v in row] for row in sigma.entries]
    for i in range(instance.n + 1):
        exact = right_substitute(instance.polynomial(i), sigma.entries).term_dict()
        approx = right_substitute(instance.polynomial(i), floating).term_dict()
        # the supports agree up to rounding residues where the exact lane cancels
        assert set(exact) <= set(approx)
        scale = max(abs(c) for c in exact.values())
        assert all(abs(c - complex(exact.get(e, 0))) <= 1e-12 * scale
                   for e, c in approx.items())


def test_ring_axioms_seeded():
    rng = seeded(3)
    for _ in range(25):
        p = random_exact_poly((1, 3), rng)
        q = random_exact_poly((1, 3), rng)
        r = random_exact_poly((1, 3), rng)
        assert (p + q) + r == p + (q + r)
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r
        assert p * q == q * p


def column_degrees(p):
    return {tuple(row) for row in weight_classes(p)[0].tolist()}


def test_column_degrees(conic_disc):
    assert column_degrees(conic_disc) == {(0, 2, 0), (1, 0, 1)}
    assert column_degrees(var(0) ** 3) == {(3, 0, 0)}


def test_column_degrees_of_conic_chow(conic):
    chow = conic.discriminants.chow
    assert column_degrees(chow) == {(1, 2, 1), (2, 0, 2)}


def test_evaluate_examples(conic_disc):
    assert evaluate(conic_disc, [[1, 0, 1]]) == -4
    assert evaluate(conic_disc, [[0, 1, 0]]) == 1
    assert evaluate(MatrixPoly.zero(SHAPE), [[5, 6, 7]]) == 0


def test_float_substitution_path(conic_disc):
    image = right_substitute(conic_disc, [[0.5, 0, 0], [0, 1.0, 0], [0, 0, 2.0]])
    assert not image.is_exact
    value = evaluate(image, [[1.0, 0.0, 1.0]])
    assert abs(value - evaluate(conic_disc, [[0.5, 0.0, 2.0]])) < 1e-12


def test_lie_derivative_single_variable():
    # generator moving column 0 into column 1: d/ds a0(A e^{s xi}) = a1 * xi[1][0]
    p = var(0)
    xi = [[0, 0, 0], [1, 0, 0], [0, 0, 0]]
    assert lie_derivative(p, xi) == var(1)


def test_json_round_trip_bit_exact(conic_disc):
    rng = seeded(13)
    for _ in range(10):
        p = random_exact_poly((2, 3), rng)
        text = json.dumps(p.to_json_dict(), sort_keys=True)
        again = MatrixPoly.from_json_dict(json.loads(text))
        assert again == p
        assert json.dumps(again.to_json_dict(), sort_keys=True) == text
    blob = conic_disc.to_json_dict()
    assert blob["rows"] == 1 and blob["cols"] == 3
    assert {t["re"] for t in blob["terms"]} == {"1", "-4"}


def test_json_rejects_a_nonzero_imaginary_part(conic_disc):
    blob = conic_disc.to_json_dict()
    assert {t["im"] for t in blob["terms"]} == {"0"}
    blob["terms"][0]["im"] = "1/2"
    with pytest.raises(ValueError, match="imaginary part 1/2"):
        MatrixPoly.from_json_dict(blob)
