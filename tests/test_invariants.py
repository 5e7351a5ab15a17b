from fractions import Fraction

import pytest

from kenergy.chern import ChernProfile, hypersurface_mu, rational_curve_profile
from kenergy.errors import FormatRangeError, KEnergyError
from kenergy.invariants import (
    VarietyData,
    degree_vector,
    format_range,
    hyperdiscriminant_degree,
    mu_from_degrees,
)


def conic_data():
    return VarietyData(n=1, N=2, d=2, mu=rational_curve_profile(2))


def rnc_data(d):
    return VarietyData(n=1, N=d, d=d, mu=rational_curve_profile(d))


def quadric_surface_data():
    return VarietyData(n=2, N=3, d=2, mu=hypersurface_mu(2, 2))


def test_dual_conic_degree():
    assert hyperdiscriminant_degree(conic_data(), 1) == 2


def test_rational_normal_curve_dual_degrees():
    for d in range(2, 7):
        assert hyperdiscriminant_degree(rnc_data(d), 1) == 2 * d - 2


def test_quadric_surface_format_degrees():
    data = quadric_surface_data()
    assert hyperdiscriminant_degree(data, 1) == 4
    assert hyperdiscriminant_degree(data, 2) == 2
    assert degree_vector(data, 2) == (6, 4, 2)


def test_chow_degree_is_always_n_plus_one_times_d():
    for data in (conic_data(), rnc_data(5), quadric_surface_data()):
        assert hyperdiscriminant_degree(data, 0) == (data.n + 1) * data.d


def test_degree_requires_admissible_format():
    data = VarietyData(n=4, N=9, d=3, mu=ChernProfile(n=4, mu=(1, 1, 1, 1, 1), d=3, N=9), delta=2)
    with pytest.raises(FormatRangeError):
        hyperdiscriminant_degree(data, 3)


def test_degree_rejects_inconsistent_mu():
    bad = VarietyData(n=1, N=2, d=2, mu=ChernProfile(n=1, mu=(1, Fraction(1, 3)), d=2, N=2))
    with pytest.raises(KEnergyError):
        hyperdiscriminant_degree(bad, 1)


def test_mu_from_degrees_examples():
    assert mu_from_degrees((4, 2), 2, 1, 1) == 1
    assert mu_from_degrees(((1 + 1) * 7,), 7, 1, 0) == 1  # mu_0 = 1 for any d
    assert mu_from_degrees((6, 4, 2), 2, 2, 2) == 2


def test_degree_mu_round_trip_for_catalog_data():
    for data in (conic_data(), rnc_data(3), rnc_data(4), quadric_surface_data()):
        degs = degree_vector(data, data.n)
        for k in range(data.n + 1):
            assert mu_from_degrees(degs[: k + 1], data.d, data.n, k) == data.mu_values[k]


def test_format_range_examples():
    fr = format_range(conic_data())
    assert (fr.lo, fr.hi) == (0, 1) and fr.admissible_k == (1,)
    fr = format_range(quadric_surface_data())
    assert (fr.lo, fr.hi) == (0, 2) and fr.admissible_k == (1, 2)
    data = VarietyData(
        n=4, N=9, d=3, mu=ChernProfile(n=4, mu=(1, 1, 1, 1, 1), d=3, N=9), delta=2
    )
    fr = format_range(data)
    assert (fr.lo, fr.hi) == (2, 4)
    assert fr.admissible_k == (1, 2)
    assert 3 in fr and 5 not in fr


def test_variety_data_invariants():
    with pytest.raises(KEnergyError):
        VarietyData(n=2, N=2, d=2, mu=hypersurface_mu(2, 2))
    with pytest.raises(KEnergyError):
        VarietyData(n=2, N=3, d=1, mu=ChernProfile(n=2, mu=(1, 0, 0), d=1, N=3))
    with pytest.raises(KEnergyError):
        VarietyData(n=3, N=5, d=2, mu=ChernProfile(n=3, mu=(1, 0, 0, 0), d=2, N=5), delta=2)
