import functools
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from kenergy.catalog import build_instance
from kenergy.energy import directional_derivative, energy_via_formula
from kenergy.errors import KEnergyError, ZeroPolynomialError
from kenergy.exactpoly import MatrixPoly, lie_derivative, right_substitute
from kenergy.pairing import (
    GroupElement,
    OneParamSubgroup,
    _tables,
    dense_form,
    dense_image,
    fs_norm_sq,
    log_fs_norm_sq,
    log_norm_ratio,
    min_weight,
    moment_matrix,
    sym_powers,
    weight_classes,
)

from conftest import random_exact_poly, random_float_sl, seeded
from oracles import fs_inner, fs_norm_sq_exact, weight_class_norms

SHAPE = (1, 3)


def var(c, shape=SHAPE):
    return MatrixPoly.variable(shape, 0, c)


@pytest.fixture
def conic_disc(conic):
    return conic.discriminants.hyper[1]


def test_fs_norm_conic_disc(conic_disc):
    assert fs_norm_sq_exact(conic_disc) == Fraction(33, 2)
    assert abs(fs_norm_sq(conic_disc) - 16.5) < 1e-12


def assert_norm_matches_oracle(p):
    # the program's log-sum-exp norm against the exact rational sum
    want = float(fs_norm_sq_exact(p))
    assert abs(fs_norm_sq(p) - want) <= 1e-12 * want


def test_fs_norm_monomial_power():
    for d in (1, 3, 5):
        mono = var(0) ** d
        assert fs_norm_sq_exact(mono) == Fraction(1, math.factorial(d))
        assert_norm_matches_oracle(mono)


def test_fs_norm_cross_term():
    p = (var(0) * var(1)).scale(2)
    assert fs_norm_sq_exact(p) == 4
    assert_norm_matches_oracle(p)


def test_fs_norm_scaling_invariance():
    rng = seeded(101)
    for _ in range(10):
        p = random_exact_poly((1, 4), rng)
        if p.is_zero:
            continue
        c = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        assert fs_norm_sq_exact(p.scale(c)) == c * c * fs_norm_sq_exact(p)
        assert_norm_matches_oracle(p)
        assert_norm_matches_oracle(p.scale(c))


def test_zero_polynomial_rejected():
    with pytest.raises(ZeroPolynomialError):
        fs_norm_sq(MatrixPoly.zero(SHAPE))
    with pytest.raises(ZeroPolynomialError):
        min_weight(OneParamSubgroup((0, 0, 0)), MatrixPoly.zero(SHAPE))


def test_log_ratio_identity(conic_disc):
    assert log_norm_ratio(GroupElement.identity(3), conic_disc) == 0.0


def test_log_ratio_invariant_torus(conic_disc):
    sigma = GroupElement.diagonal([2, 1, Fraction(1, 2)])
    assert log_norm_ratio(sigma, conic_disc) == 0.0


def test_log_ratio_scaling_torus(conic_disc):
    sigma = GroupElement.diagonal([2, 2, Fraction(1, 4)])
    assert abs(log_norm_ratio(sigma, conic_disc) - math.log(8 / 11)) < 1e-12


def test_log_ratio_invariant_under_rescaling(conic_disc):
    sigma = GroupElement.diagonal([2, 2, Fraction(1, 4)])
    scaled = conic_disc.scale(Fraction(-9, 5))
    assert abs(log_norm_ratio(sigma, scaled) - log_norm_ratio(sigma, conic_disc)) < 1e-12


def test_weight_classes_against_the_exact_oracle():
    # every stored polynomial of four catalog varieties, and seeded random ones:
    # the class matrix is the oracle's set of column degrees, each class norm
    # is within 1e-12 relative of the exact one, and the class norms sum to |p|^2
    polys = []
    for name in ("conic", "rational_normal_curve(3)", "rational_normal_curve(5)",
                 "quadric_surface"):
        instance = build_instance(name)
        polys += [instance.polynomial(i) for i in range(instance.n + 1)]
    rng = seeded(40)
    polys += [random_exact_poly((2, 3), rng, max_terms=8, max_exp=3) for _ in range(20)]
    for p in polys:
        want = weight_class_norms(p)
        degrees, logs = weight_classes(p)
        assert degrees.dtype == np.int64
        assert [tuple(row) for row in degrees.tolist()] == sorted(want)
        for row, log_norm in zip(degrees.tolist(), logs):
            exact = want[tuple(row)]
            assert abs(math.exp(log_norm) - exact) <= 1e-12 * exact
        assert sum(want.values()) == fs_norm_sq_exact(p)


def test_diagonal_ratio_factors_each_class_on_its_own():
    # x0^2 + 1e-200 x2^2 under diag(1e-120, 1, 1e120): the x2^2 class is
    # negligible at the identity and dominant at sigma, so scaling both classes
    # by one maximum would lose it (about -1105 instead of 80 log 10)
    p = var(0) ** 2 + (var(2) ** 2).scale(Fraction(1, 10**200))
    t = Fraction(1, 10**120)
    sigma = GroupElement.diagonal([t, 1, 1 / t])
    half, tiny = Fraction(1, 2), Fraction(1, 10**400)
    ratio = (half * t**4 + half * tiny * t**-4) / (half + half * tiny)
    want = math.log(ratio.numerator) - math.log(ratio.denominator)
    assert abs(want - 184.20680743952) <= 1e-12 * want
    assert abs(log_norm_ratio(sigma, p) - want) <= 1e-12 * want


def test_min_weight_examples(conic_disc):
    assert min_weight(OneParamSubgroup((1, 0, -1)), conic_disc) == 0
    assert min_weight(OneParamSubgroup((1, 1, -2)), conic_disc) == -1
    assert min_weight(OneParamSubgroup((0, 0, 0)), conic_disc) == 0


def test_min_weight_is_exact_beyond_int64(conic):
    # column degrees (1,2,1) and (2,0,2): weights -5e18 and 1e19 (past int64)
    lam = OneParamSubgroup((5 * 10**18, -5 * 10**18, 0))
    assert min_weight(lam, conic.discriminants.chow) == -5 * 10**18
    lam = OneParamSubgroup((5 * 10**19, -5 * 10**19, 0))
    assert min_weight(lam, conic.discriminants.chow) == -5 * 10**19


def test_min_weight_matches_log_ratio_slope(conic, conic_disc):
    # slope of LR(lambda(t), p) against log t^2 approaches the minimal weight
    lam = OneParamSubgroup((2, -1, -1))
    expected = min_weight(lam, conic_disc)
    ts = [10.0**-j for j in range(1, 7)]
    xs = [2 * math.log(t) for t in ts]
    ys = [log_norm_ratio(lam.at(t), conic_disc) for t in ts]
    slope = (ys[-1] - ys[0]) / (xs[-1] - xs[0])
    assert abs(slope - expected) < 0.01 * abs(expected)


def test_min_weight_superadditive_on_products(conic):
    chow = conic.discriminants.chow
    disc = conic.discriminants.hyper[1]
    rng = seeded(59)
    for _ in range(20):
        lam = None
        while lam is None:
            w = [rng.randint(-3, 3) for _ in range(3)]
            if sum(w) == 0:
                lam = OneParamSubgroup(tuple(w))
        assert min_weight(lam, chow * chow) == 2 * min_weight(lam, chow)
        assert min_weight(lam, disc * disc) == 2 * min_weight(lam, disc)
        other = random_exact_poly((1, 3), seeded(rng.randint(0, 10**6)))
        if other.is_zero:
            continue
        product = disc * other
        if not product.is_zero:
            assert min_weight(lam, product) >= min_weight(lam, disc) + min_weight(lam, other)


def test_action_compatibility(conic_disc):
    import numpy as np

    rng = np.random.default_rng(4)
    sigma = random_float_sl(3, rng)
    tau = random_float_sl(3, rng)
    pulled = right_substitute(conic_disc, tau.entries)
    lhs = log_norm_ratio(GroupElement.from_matrix(sigma.matrix @ tau.matrix), conic_disc)
    rhs = log_norm_ratio(sigma, pulled) + log_norm_ratio(tau, conic_disc)
    assert abs(lhs - rhs) < 1e-9


def test_tensor_ops_on_quadric_pair(quadric_surface):
    chow = quadric_surface.discriminants.chow
    hyperdet = quadric_surface.discriminants.hyper[1]
    dual = quadric_surface.discriminants.hyper[2]
    lam = OneParamSubgroup((3, -1, -1, -1))
    # w(v2) = 2 w(chow) + 6 w(hyperdet) = -28 and w(w2) = 4 w(chow) + 6 w(dual) = -20;
    # netted, A_2 = -8 = sum_i c_i w(Delta_i) with c = (-2, 6, -6)
    weights = [min_weight(lam, p) for p in (chow, hyperdet, dual)]
    assert 2 * weights[0] + 6 * weights[1] == -28
    assert 4 * weights[0] + 6 * weights[2] == -20
    assert -2 * weights[0] + 6 * weights[1] - 6 * weights[2] == -28 - (-20)
    # v2 = chow^2 (x) hyperdet^6 and w2 = chow^4 (x) dual^6 have equal degree
    degrees = [p.total_degree() for p in (chow, hyperdet, dual)]
    assert 2 * degrees[0] + 6 * degrees[1] == 4 * degrees[0] + 6 * degrees[2] == 36


def test_one_param_subgroup_validation():
    with pytest.raises(KEnergyError):
        OneParamSubgroup((1, 1, -1))
    lam = OneParamSubgroup((2, -1, -1))
    assert lam.at(Fraction(1, 2)).exact


def test_sizes_must_match_the_columns(conic_disc):
    # conic_disc has 3 columns; zip would silently truncate a shorter vector
    for weights in ((1, -1), (2, -1, -1, 0)):
        with pytest.raises(KEnergyError):
            min_weight(OneParamSubgroup(weights), conic_disc)
    # the diagonal branch scales columns without a substitution
    for sigma in (GroupElement.identity(2), OneParamSubgroup((1, -1)).at(0.5),
                  GroupElement.identity(4)):
        with pytest.raises(KEnergyError):
            log_norm_ratio(sigma, conic_disc)


def test_group_element_determinant_check():
    with pytest.raises(KEnergyError):
        GroupElement.diagonal([2, 1, 1])
    with pytest.raises(KEnergyError):
        GroupElement.from_matrix([[2.0, 0, 0], [0, 1.0, 0], [0, 0, 1.0]])
    normalized = GroupElement.from_matrix(
        [[2.0, 0, 0], [0, 1.0, 0], [0, 0, 1.0]], normalize=True
    )
    assert abs(complex(normalized.entries[0][0]) - 2 / 2 ** (1 / 3)) < 1e-12


def test_group_element_accepts_large_det_one_floats():
    # det-1 matrices with singular values 1e3 ... 1e-3: entries in the hundreds,
    # so the floating determinant carries rounding error far above 1e-12
    rng = np.random.default_rng(11)
    for size in (3, 4):
        for _ in range(10):
            q1, _ = np.linalg.qr(rng.standard_normal((size, size)))
            q2, _ = np.linalg.qr(rng.standard_normal((size, size)))
            if np.linalg.det(q1 @ q2) < 0:
                q1[:, 0] = -q1[:, 0]
            singular = [1e3] + [1.0] * (size - 2) + [1e-3]
            sigma = q1 @ np.diag(singular) @ q2
            assert np.abs(sigma).max() > 1e2
            GroupElement.from_matrix(sigma)
            with pytest.raises(KEnergyError):
                GroupElement.from_matrix(sigma * 2.0 ** (1.0 / size))
    with pytest.raises(KEnergyError):
        GroupElement.from_matrix(np.diag([2.0, 1.0, 1.0]))


def test_float_lane_at_large_det_one_entries():
    # coefficients of the substituted Chow form reach ~1e160, whose squares
    # overflow; the float lane reads log|c|^2 as 2 log|c| and agrees with the
    # exact lane, until a coefficient itself overflows at 1e80
    rnc4 = build_instance("rational_normal_curve(4)")

    def sigma(big, small):
        rows = [[int(i == j) for j in range(5)] for i in range(5)]
        rows[0][0], rows[1][0], rows[1][1] = big, 1, small
        return rows

    exact = energy_via_formula(
        rnc4, GroupElement.from_matrix(sigma(10**40, Fraction(1, 10**40))), 1).total
    floating = energy_via_formula(
        rnc4, GroupElement.from_matrix(sigma(1e40, 1e-40)), 1).total
    assert abs(floating - exact) <= 1e-9 * abs(exact)
    with pytest.raises(KEnergyError, match="exact lane"):
        energy_via_formula(rnc4, GroupElement.from_matrix(sigma(1e80, 1e-80)), 1)
    # the gradient reads the same substituted coefficients: finite at 1e40,
    # refused with the same error, and no RuntimeWarning, at 1e80
    xi = np.diag([1.0, -1.0, 0.0, 0.0, 0.0]).astype(complex)
    xi[0, 1] = xi[2, 4] = 0.5j
    assert math.isfinite(directional_derivative(
        rnc4, GroupElement.from_matrix(sigma(1e40, 1e-40)), 1, xi))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(KEnergyError, match="exact lane"):
            directional_derivative(rnc4, GroupElement.from_matrix(sigma(1e80, 1e-80)), 1, xi)


def test_sym_powers_form_a_representation():
    # Sym^d(h g) = Sym^d(h) Sym^d(g), Sym^d(I) = I and Sym^d(diag t) = diag(t^alpha),
    # from the index tables alone
    rng = np.random.default_rng(31)
    for n in (3, 4, 5):
        g, h = (random_float_sl(n, rng, scale=0.4).matrix for _ in range(2))
        t = np.exp(0.3 * rng.standard_normal(n) + 1j * rng.standard_normal(n))
        product, sym_h, sym_g = (sym_powers(m, 6) for m in (h @ g, h, g))
        ones, diag = sym_powers(np.eye(n), 6), sym_powers(np.diag(t), 6)
        for d in range(1, 7):
            want = sym_h[d] @ sym_g[d]
            assert np.abs(product[d] - want).max() <= 1e-12 * np.abs(want).max()
            assert np.array_equal(ones[d], np.eye(len(ones[d])))
            powers = np.array([np.prod(t ** np.array(alpha)) for alpha in _tables(n, d).index])
            assert np.allclose(diag[d], np.diag(powers), rtol=1e-13, atol=0)


def test_dense_lane_against_the_dict_substitution():
    # every stored polynomial up to RNC(4), and one that is not multihomogeneous:
    # log-norm ratios within 1e-12 relative of the exact dict path in complex
    # arithmetic, and moment matrices against the Lie-derivative pairing
    rng = np.random.default_rng(32)
    x = functools.partial(MatrixPoly.variable, (2, 3))
    mixed = x(0, 0) ** 2 * x(1, 1) - (x(0, 1) * x(1, 2)).scale(3) + x(1, 0) ** 3 * x(0, 2)
    polys = [(mixed, True)]
    for name in ("conic", "rational_normal_curve(3)", "quadric_surface",
                 "rational_normal_curve(4)"):
        instance = build_instance(name)
        polys += [(instance.polynomial(i), instance.N < 4) for i in range(instance.n + 1)]
    for p, moments in polys:
        n = p.shape[1]
        sigma = random_float_sl(n, rng, scale=0.5)
        image = right_substitute(p, sigma.entries)
        want = log_fs_norm_sq(image) - log_fs_norm_sq(p)
        assert abs(log_norm_ratio(sigma, p) - want) <= 1e-12 * max(1.0, abs(want))
        if not moments:
            continue
        moment = moment_matrix(dense_image(sigma, dense_form(p)), n)
        norm = fs_norm_sq(image)
        for j in range(n):
            for c in range(n):
                unit = np.zeros((n, n), dtype=complex)
                unit[j, c] = 1.0
                want = fs_inner(lie_derivative(image, unit), image) / norm
                assert abs(moment[j, c] - want) <= 1e-12 * max(1.0, abs(want))


@pytest.mark.parametrize("cell", [float("nan"), float("inf"), complex(1, float("nan"))])
def test_group_element_rejects_non_finite_entries(cell):
    rows = [[1.0, 0, 0], [0, 1.0, 0], [0, 0, 1.0]]
    rows[0][1] = cell
    for normalize in (False, True):
        with pytest.raises(KEnergyError, match="non-finite"):
            GroupElement.from_matrix(rows, normalize=normalize)
