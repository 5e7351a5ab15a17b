import pytest

from kenergy.asymptotics import (
    SlopeReport,
    slope_fit,
    slope_integer,
    stability_scan,
    weight_vectors,
)
from kenergy.catalog import save_instance
from kenergy.cli import main
from kenergy.energy import build_pair_vectors
from kenergy.errors import KEnergyError
from kenergy.pairing import OneParamSubgroup


def brute_force_slope(instance, k, weights):
    """Independent oracle: raw enumeration of monomial weights, per factor."""
    v, w = build_pair_vectors(instance, k)

    def poly_weight(poly):
        best = None
        for exp in poly.term_dict():
            cols = [0] * poly.shape[1]
            for row in exp:
                for c, e in enumerate(row):
                    cols[c] += e
            w = sum(cc * aa for cc, aa in zip(cols, weights))
            best = w if best is None else min(best, w)
        return best

    def tensor_weight(exponents):
        return sum(e * poly_weight(instance.polynomial(i)) for i, e in enumerate(exponents))

    return tensor_weight(v) - tensor_weight(w)


CASES = [
    ("conic", 1, (1, 0, -1), 0),
    ("conic", 1, (2, -1, -1), -6),
    ("quadric_surface", 2, (3, -1, -1, -1), -8),
    ("quadric_surface", 2, (1, 1, -1, -1), 0),
]


@pytest.mark.parametrize("name,k,weights,expected", CASES)
def test_integer_slopes(name, k, weights, expected, conic, quadric_surface):
    instance = {"conic": conic, "quadric_surface": quadric_surface}[name]
    lam = OneParamSubgroup(weights)
    assert slope_integer(instance, k, lam) == expected
    assert brute_force_slope(instance, k, weights) == expected


def test_quadric_k1_slope_against_oracle(quadric_surface):
    for weights in ((3, -1, -1, -1), (2, 0, -1, -1), (1, 1, -1, -1), (3, -3, 1, -1)):
        lam = OneParamSubgroup(weights)
        assert slope_integer(quadric_surface, 1, lam) == brute_force_slope(
            quadric_surface, 1, weights
        )


def test_twisted_cubic_invariant_torus(twisted_cubic):
    # the image of the diagonal SL(2) torus fixes both the chow form and the
    # discriminant of binary cubics monomial by monomial
    lam = OneParamSubgroup((3, 1, -1, -3))
    assert slope_integer(twisted_cubic, 1, lam) == 0


def test_slope_of_zero_subgroup(conic):
    assert slope_integer(conic, 1, OneParamSubgroup((0, 0, 0))) == 0


def test_slope_fit_constant_case(conic):
    report = slope_fit(conic, 1, OneParamSubgroup((1, 0, -1)), [1e-1, 1e-2, 1e-3, 1e-4])
    assert isinstance(report, SlopeReport)
    assert abs(report.fit_slope) < 1e-6
    assert report.fit_residual < 1e-9
    assert report.a_k == 0 and report.bounded_below


def test_slope_fit_descending_case(conic):
    samples = [10.0**-j for j in range(1, 6)]
    report = slope_fit(conic, 1, OneParamSubgroup((2, -1, -1)), samples)
    assert report.a_k == -6
    assert abs(report.fit_slope - (-6)) < 0.06


def test_slope_fit_quadric(quadric_surface):
    samples = [10.0**-j for j in range(1, 6)]
    report = slope_fit(quadric_surface, 2, OneParamSubgroup((3, -1, -1, -1)), samples)
    assert report.a_k == -8
    assert abs(report.fit_slope - (-8)) < 0.08


def test_slope_fit_residual_stays_bounded(conic):
    samples = [10.0**-j for j in range(1, 7)]
    report = slope_fit(conic, 1, OneParamSubgroup((2, -1, -1)), samples)
    detrended = [
        v - report.a_k * 2.0 * __import__("math").log(t)
        for t, v in zip(report.samples, report.values)
    ]
    assert max(detrended) - min(detrended) < 10.0


def test_slope_fit_input_validation(conic):
    lam = OneParamSubgroup((2, -1, -1))
    with pytest.raises(KEnergyError):
        slope_fit(conic, 1, lam, [0.1, 0.2, 0.3])
    with pytest.raises(KEnergyError):
        slope_fit(conic, 1, lam, [0.1, 0.2, 1.5, 0.3])
    with pytest.raises(KEnergyError, match="2 distinct"):
        slope_fit(conic, 1, lam, [0.1, 0.1, 0.1, 0.1])


def test_slope_fit_far_below_the_float_range_of_t_to_the_a(conic, quadric_surface):
    # t^3 underflows and t^-3 overflows on these grids; the fit reads each
    # ratio from the log scales a_j log t instead of forming lambda(t)
    conic_grid = [10.0 ** -e for e in (2, 76, 151, 225, 300)]
    report = slope_fit(conic, 1, OneParamSubgroup((3, 0, -3)), conic_grid)
    assert report.fit_slope == report.a_k == 0
    quadric_grid = [10.0 ** -e for e in (2, 61, 121, 180, 240, 300)]
    report = slope_fit(quadric_surface, 2, OneParamSubgroup((-3, 1, 1, 1)), quadric_grid)
    assert report.a_k == -8
    assert abs(report.fit_slope + 8) < 1e-9
    report = slope_fit(conic, 1, OneParamSubgroup((1, 0, -1)), [1e-1, 1e-100, 1e-200, 1e-320])
    assert report.fit_slope == report.a_k == 0


def test_diagonal_consistency_sweep(conic, twisted_cubic, quadric_surface):
    # fit agrees with the integer slope within 1% on every catalog instance
    # and admissible k, over a couple of subgroups each
    samples = [10.0**-j for j in range(1, 6)]
    probes = {
        3: ((2, -1, -1), (3, -2, -1)),
        4: ((3, -1, -1, -1), (2, 0, -1, -1)),
    }
    for instance in (conic, twisted_cubic, quadric_surface):
        ncoords = instance.N + 1
        for weights in probes.get(ncoords, ((1,) + (0,) * (ncoords - 2) + (-1,),)):
            lam = OneParamSubgroup(weights)
            for k in range(1, instance.n + 1):
                report = slope_fit(instance, k, lam, samples)
                assert abs(report.fit_slope - report.a_k) <= max(0.01 * abs(report.a_k), 0.01)


def test_weight_vector_enumeration_counts():
    vecs = weight_vectors(3, 1)
    assert (0, 0, 0) in vecs
    assert (1, 0, -1) in vecs and (-1, 0, 1) in vecs
    assert len(vecs) == 7  # all sum-zero vectors in {-1,0,1}^3


def test_scan_conic(conic):
    report = stability_scan(conic, 1, 3)
    assert report.max_slope <= 0
    assert not report.destabilizer_found
    assert "no destabilizer" in report.verdict
    assert report.n_evaluated == len(weight_vectors(3, 3))


def test_scan_quadric(quadric_surface):
    for k in (1, 2):
        report = stability_scan(quadric_surface, k, 3)
        assert report.max_slope <= 0
        assert not report.destabilizer_found


def test_scan_trivial_bound(conic):
    # at bound 0 the only weight vector is lambda = 0: a scan of nothing
    for bound in (0, -1):
        with pytest.raises(KEnergyError, match="at least 1"):
            stability_scan(conic, 1, bound)


@pytest.mark.parametrize("name,k,bound", [
    ("conic", 1, 3),
    ("twisted_cubic", 1, 2),
    ("quadric_surface", 1, 3),
    ("quadric_surface", 2, 3),
])
def test_scan_matches_brute_force_oracle(name, k, bound, request):
    instance = request.getfixturevalue(name)
    vectors = weight_vectors(instance.N + 1, bound)
    slopes = [brute_force_slope(instance, k, vec) for vec in vectors]
    report = stability_scan(instance, k, bound)
    assert report.max_slope == max(slopes)
    # the first maximum in lexicographic order
    assert report.worst.weights == vectors[slopes.index(max(slopes))]
    assert report.n_evaluated == len(vectors)
    assert report.destabilizer_found == (max(slopes) > 0)


def test_scan_verdict_names_the_coordinate_torus(quadric_surface):
    # M_2 on the quadric is unbounded along conjugates of the coordinate torus,
    # so an unscoped "no destabilizer" would be false
    report = stability_scan(quadric_surface, 2, 4)
    assert not report.destabilizer_found
    assert report.verdict == "no destabilizer on the coordinate torus at bound 4"


@pytest.mark.parametrize("fit", [(), ("--fit", "1e-1:1e-5:5")])
def test_asymptotics_builds_one_table_per_stored_polynomial(quadric_surface, tmp_path, capsys,
                                                          monkeypatch, fit):
    # a fit reads A_k from the k + 1 tables it builds; the slope alone builds them once
    import kenergy.asymptotics
    import kenergy.pairing

    save_instance(quadric_surface, tmp_path)
    built = []
    original = kenergy.pairing.weight_classes

    def counting(p):
        built.append(p)
        return original(p)

    monkeypatch.setattr(kenergy.pairing, "weight_classes", counting)
    monkeypatch.setattr(kenergy.asymptotics, "weight_classes", counting)
    assert main(["asymptotics", "--instance", str(tmp_path), "--k", "2",
                 "--lambda", "3,-1,-1,-1", *fit]) == 0
    capsys.readouterr()
    assert len(built) == 3
