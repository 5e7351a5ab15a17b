import json
from fractions import Fraction

import pytest

from kenergy.catalog import (
    binary_discriminant,
    build_instance,
    cayley_hyperdet,
    chow_form_hypersurface,
    dual_quadric,
    load_instance,
    normalize_scaling,
    quadric_poly,
    save_instance,
    sylvester_resultant,
    validate_instance,
)
from kenergy.errors import DegreeMismatchError, InvalidInstanceError, KEnergyError
from kenergy.exactpoly import MatrixPoly
from kenergy.invariants import hyperdiscriminant_degree

from conftest import seeded
from oracles import evaluate


def is_scalar_multiple(p, q):
    """p == c * q for a single nonzero scalar c."""
    if p.shape != q.shape or p.num_terms() != q.num_terms():
        return False
    pd, qd = p.term_dict(), q.term_dict()
    ratio = None
    for exp, c in pd.items():
        if exp not in qd:
            return False
        r = c / qd[exp]
        if ratio is None:
            ratio = r
        elif r != ratio:
            return False
    return ratio is not None


# -- resultants --


def test_resultant_distinct_linear_roots():
    assert sylvester_resultant([-2, 1], [-3, 1]) == 1  # roots 2 and 3


def test_resultant_shared_root():
    assert sylvester_resultant([-1, 0, 1], [-1, 1]) == 0


def test_resultant_no_shared_root():
    assert sylvester_resultant([1, 0, 1], [-1, 1]) == 2  # lc(g)^deg(f) * f(1)


def test_resultant_rejects_constants():
    with pytest.raises(KEnergyError):
        sylvester_resultant([1], [-1, 1])


def test_resultant_multiplicative_in_first_argument():
    rng = seeded(23)

    def convolve(a, b):
        out = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] += x * y
        return out

    for _ in range(20):
        f = [Fraction(rng.randint(-4, 4)) for _ in range(rng.randint(2, 3))]
        g = [Fraction(rng.randint(-4, 4)) for _ in range(rng.randint(2, 3))]
        h = [Fraction(rng.randint(-4, 4)) for _ in range(rng.randint(2, 3))]
        if not (f[-1] and g[-1] and h[-1]):
            continue
        lhs = sylvester_resultant(convolve(f, g), h)
        rhs = sylvester_resultant(f, h) * sylvester_resultant(g, h)
        assert lhs == rhs


# -- binary discriminants --


def test_binary_discriminant_quadratic():
    disc = binary_discriminant(2)
    shape = (1, 3)
    a0 = MatrixPoly.variable(shape, 0, 0)
    a1 = MatrixPoly.variable(shape, 0, 1)
    a2 = MatrixPoly.variable(shape, 0, 2)
    assert disc == a1 * a1 - (a0 * a2).scale(4)
    assert evaluate(disc, [[1, 0, 1]]) == -4


def test_binary_discriminant_depressed_cubic():
    disc = binary_discriminant(3)
    rng = seeded(29)
    for _ in range(10):
        p = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
        q = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
        value = evaluate(disc, [[q, p, 0, 1]])
        assert value == -4 * p**3 - 27 * q**2


def test_binary_discriminant_degrees():
    for d in range(2, 7):
        disc = binary_discriminant(d)
        assert disc.homogeneous_degree() == 2 * d - 2


def test_binary_discriminant_detects_double_roots():
    disc = binary_discriminant(4)
    # (z-1)^2 (z-2)(z+3): coefficients ascending of the expanded quartic
    # (z^2 - 2z + 1)(z^2 + z - 6) = z^4 - z^3 - 7z^2 + 13z - 6
    assert evaluate(disc, [[-6, 13, -7, -1, 1]]) == 0
    # separable: (z-1)(z-2)(z+3)(z+5)
    assert evaluate(disc, [[30, 19, -17, 5, 1]]) != 0


# -- dual quadrics --


def test_dual_quadric_round_conic():
    dual = dual_quadric([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    shape = (1, 3)
    expected = sum(
        (MatrixPoly.variable(shape, 0, c) ** 2 for c in range(3)),
        MatrixPoly.zero(shape),
    )
    assert dual == expected


def test_dual_quadric_of_parametrized_conic():
    half = Fraction(1, 2)
    dual = dual_quadric([[0, 0, half], [0, -1, 0], [half, 0, 0]])
    shape = (1, 3)
    a0 = MatrixPoly.variable(shape, 0, 0)
    a1 = MatrixPoly.variable(shape, 0, 1)
    a2 = MatrixPoly.variable(shape, 0, 2)
    assert is_scalar_multiple(dual, (a0 * a2).scale(4) - a1 * a1)


def test_dual_quadric_of_segre_quadric():
    half = Fraction(1, 2)
    Q = [[0, 0, 0, half], [0, 0, -half, 0], [0, -half, 0, 0], [half, 0, 0, 0]]
    dual = dual_quadric(Q)
    shape = (1, 4)
    a = [MatrixPoly.variable(shape, 0, c) for c in range(4)]
    assert is_scalar_multiple(dual, a[0] * a[3] - a[1] * a[2])


def test_dual_quadric_rejects_singular():
    with pytest.raises(KEnergyError, match="not smooth"):
        dual_quadric([[1, 0], [0, 0]])


# -- Cayley hyperdeterminant --


def test_cayley_hyperdet_coefficient_profile():
    det = cayley_hyperdet()
    coeffs = sorted(int(c) for _, c in det.terms())
    assert coeffs == [-2] * 6 + [1] * 4 + [4] * 2
    assert det.homogeneous_degree() == 4


def test_cayley_hyperdet_evaluations():
    det = cayley_hyperdet()
    diag = [[1, 0, 0, 0], [0, 0, 0, 1]]  # a000 = a111 = 1
    assert evaluate(det, diag) == 1
    rank_one = [[1, 0, 0, 0], [0, 0, 0, 0]]
    assert evaluate(det, rank_one) == 0
    ones = [[1, 1, 1, 1], [1, 1, 1, 1]]
    assert evaluate(det, ones) == 0


def test_cayley_hyperdet_vanishes_on_decomposables():
    # tensors u x v x w are in every secant-deficient stratum of the dual
    rng = seeded(31)
    det = cayley_hyperdet()
    for _ in range(20):
        u = [Fraction(rng.randint(-3, 3)) for _ in range(2)]
        v = [Fraction(rng.randint(-3, 3)) for _ in range(2)]
        w = [Fraction(rng.randint(-3, 3)) for _ in range(2)]
        a = [[u[i] * v[j] * w[kk] for j in (0, 1) for kk in (0, 1)] for i in (0, 1)]
        assert evaluate(det, a) == 0


# -- Chow forms --


def test_conic_chow_form_examples(conic):
    q = quadric_poly([[0, 0, Fraction(1, 2)], [0, -1, 0], [Fraction(1, 2), 0, 0]])
    chow = chow_form_hypersurface(q, rows=2)
    # the cross product of x0*x2 - x1^2 is an oracle for the stored resultant
    assert is_scalar_multiple(chow, conic.discriminants.chow)
    assert chow.homogeneous_degree() == 4
    assert evaluate(chow, [[1, 0, 0], [0, 1, 0]]) == 0
    assert evaluate(chow, [[1, 0, 0], [0, 0, 1]]) == -1
    assert evaluate(chow, [[1, 2, 3], [2, 4, 6]]) == 0  # rank deficient


def test_conic_chow_vanishes_iff_frame_meets_curve():
    conic = build_instance("conic")
    chow = conic.discriminants.chow
    rng = seeded(37)
    for _ in range(50):
        z = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        # two independent hyperplanes through (1, z, z^2)
        rows = [[-z, 1, 0], [0, -z, 1]]
        assert evaluate(chow, rows) == 0
    # a frame meeting the curve nowhere rational: x0 = 0 & x1 = x2 misses z-chart,
    # meets at the infinity point [0:0:1]? x0=0 forces z infinite; row2: x1 = x2.
    value = evaluate(chow, [[1, 0, 0], [0, 1, -1]])
    # frame {x0 = 0} cap {x1 = x2} = [0:1:1], not on the conic
    assert value != 0


def test_twisted_cubic_chow_vanishing(twisted_cubic):
    chow = twisted_cubic.discriminants.chow
    rng = seeded(41)
    for _ in range(25):
        z = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
        rows = [[-z, 1, 0, 0], [0, 0, -z, 1]]
        assert evaluate(chow, rows) == 0
    assert evaluate(chow, [[1, 0, 0, 0], [0, 1, 0, -1]]) != 0


def test_chow_vanishing_iff_common_root_oracle(conic, twisted_cubic):
    # independent oracle: numerically root-find the two binary forms cut out
    # by the frame rows and compare "shares a projective root" with R == 0
    import numpy as np

    rng = seeded(47)
    for instance in (conic, twisted_cubic):
        chow = instance.discriminants.chow
        d = instance.data.d
        agreements = 0
        for _ in range(40):
            frame = [[rng.randint(-4, 4) for _ in range(d + 1)] for _ in range(2)]
            value = evaluate(chow, frame)
            f0 = np.array(frame[0][::-1], dtype=float)
            f1 = np.array(frame[1][::-1], dtype=float)
            if not f0.any() or not f1.any():
                continue
            roots0 = np.roots(f0) if np.trim_zeros(f0, "f").size > 1 else np.array([])
            # pad to projective roots: leading-coefficient drops mean roots at infinity
            inf0 = frame[0][d] == 0
            inf1 = frame[1][d] == 0
            shares = inf0 and inf1
            for r in roots0:
                vals = sum(c * r**j for j, c in enumerate(frame[1]))
                scale = max(1.0, max(abs(c) for c in frame[1]) * max(1.0, abs(r)) ** d)
                if abs(vals) / scale < 1e-8:
                    shares = True
            is_zero = value == 0
            assert is_zero == shares, (instance.name, frame, value)
            agreements += 1
        assert agreements >= 30


def test_rational_normal_curve_degree_five():
    inst = build_instance("rational_normal_curve(5)")
    assert inst.discriminants.chow.homogeneous_degree() == 10
    assert inst.discriminants.hyper[1].homogeneous_degree() == 8
    assert inst.discriminants.hyper[1].num_terms() == 59


def test_conic_tangency_characterization(conic):
    disc = conic.discriminants.hyper[1]
    rng = seeded(43)
    hits = 0
    for _ in range(200):
        z = Fraction(rng.randint(-8, 8), rng.randint(1, 5))
        # tangent hyperplane at (1, z, z^2): coefficients (z^2, -2z, 1)
        tangent = [[z * z, -2 * z, 1]]
        assert evaluate(disc, tangent) == 0
        hits += 1
    assert hits == 200
    for _ in range(200):
        a = [[Fraction(rng.randint(-9, 9)), Fraction(rng.randint(-9, 9)), Fraction(rng.randint(1, 9))]]
        expected = a[0][1] ** 2 - 4 * a[0][0] * a[0][2]
        if expected != 0:
            assert evaluate(disc, a) != 0


# -- instances --


def test_build_time_degree_invariants(conic, twisted_cubic, quadric_surface):
    for instance in (conic, twisted_cubic, quadric_surface, build_instance("rational_normal_curve(4)")):
        data = instance.data
        assert instance.discriminants.chow.homogeneous_degree() == hyperdiscriminant_degree(data, 0)
        for i, poly in instance.discriminants.hyper.items():
            assert poly.homogeneous_degree() == hyperdiscriminant_degree(data, i)
        assert validate_instance(instance)


def test_quadric_surface_stores_hyperdet(quadric_surface):
    assert is_scalar_multiple(quadric_surface.discriminants.hyper[1], cayley_hyperdet())


def test_conic_is_the_rational_normal_curve_of_degree_two(conic):
    rnc2 = build_instance("rational_normal_curve(2)")
    assert conic.name == "conic"
    assert conic.data == rnc2.data
    assert conic.parametrization == rnc2.parametrization
    assert conic.discriminants.chow == rnc2.discriminants.chow
    assert conic.discriminants.hyper == rnc2.discriminants.hyper


def test_normalize_scaling_fixed_points(conic):
    disc = conic.discriminants.hyper[1]
    assert normalize_scaling(disc) == disc
    # positive rescaling does not move the chosen representative
    assert normalize_scaling(disc.scale(Fraction(7, 3))) == disc
    # the rule is idempotent on every catalog polynomial
    for poly in (disc, conic.discriminants.chow, disc.scale(Fraction(-7, 3))):
        once = normalize_scaling(poly)
        assert normalize_scaling(once) == once


def test_save_load_round_trip(tmp_path, quadric_surface):
    save_instance(quadric_surface, tmp_path / "qs")
    again = load_instance(tmp_path / "qs")
    assert again.data == quadric_surface.data
    assert again.discriminants.chow == quadric_surface.discriminants.chow
    assert again.discriminants.hyper == quadric_surface.discriminants.hyper
    via_user = build_instance(f"user({tmp_path / 'qs'})")
    assert via_user.parametrization == quadric_surface.parametrization


def test_load_rejects_degree_mismatch(tmp_path, conic):
    save_instance(conic, tmp_path / "bad")
    disc_file = tmp_path / "bad" / "hyper_1.json"
    wrong = conic.discriminants.hyper[1] * conic.discriminants.hyper[1]
    disc_file.write_text(json.dumps(wrong.to_json_dict()))
    with pytest.raises((DegreeMismatchError, InvalidInstanceError)):
        load_instance(tmp_path / "bad")


def test_load_rejects_a_zero_polynomial(tmp_path, conic):
    # the pair (v_k, w_k) takes every stored polynomial as a factor, so none may be zero
    save_instance(conic, tmp_path / "bad")
    zero = MatrixPoly.zero(conic.discriminants.hyper[1].shape)
    (tmp_path / "bad" / "hyper_1.json").write_text(json.dumps(zero.to_json_dict()))
    with pytest.raises(InvalidInstanceError, match="is zero"):
        load_instance(tmp_path / "bad")


def test_load_rejects_mixed_row_degrees(tmp_path, conic):
    save_instance(conic, tmp_path / "bad")
    chow = conic.discriminants.chow
    terms = chow.term_dict()
    exp = next(e for e in terms if e[0][0])
    # move one unit of degree from row 0 to row 1: same total degree
    moved = ((exp[0][0] - 1,) + exp[0][1:], (exp[1][0] + 1,) + exp[1][1:])
    terms[moved] = terms.pop(exp) + terms.get(moved, 0)
    mixed = MatrixPoly(chow.shape, terms)
    assert mixed.homogeneous_degree() == chow.homogeneous_degree()
    (tmp_path / "bad" / "chow.json").write_text(json.dumps(mixed.to_json_dict()))
    with pytest.raises(InvalidInstanceError, match="row degrees"):
        load_instance(tmp_path / "bad")


def test_load_rejects_garbage(tmp_path):
    (tmp_path / "junk").mkdir()
    (tmp_path / "junk" / "instance.json").write_text("{not json")
    with pytest.raises(InvalidInstanceError):
        load_instance(tmp_path / "junk")
