from fractions import Fraction

import pytest

from kenergy.chern import (
    _times,
    comb,
    derive_jet_top_chern,
    hypersurface_mu,
    jet_top_chern_closed_form,
    rational_curve_profile,
    tensor_line_chern,
)
from kenergy.errors import KEnergyError

# the generators as classes {(i, p, q): coefficient}
ONE = {(0, 0, 0): 1}
OMEGA = {(0, 1, 0): 1}
OMEGA_FS = {(0, 0, 1): 1}


def tangent_chern(i):
    return {(i, 0, 0): 1}


def test_tensor_line_chern_line_times_line():
    n, k = 2, 1
    out = tensor_line_chern(1, 1, [ONE, OMEGA], OMEGA_FS, n, k)
    assert out == {**OMEGA, **OMEGA_FS}


def test_tensor_line_chern_rank_n_first_class():
    n, k = 4, 2
    out = tensor_line_chern(n, 1, [ONE, tangent_chern(1)], OMEGA, n, k)
    assert out == {(1, 0, 0): 1, (0, 1, 0): n}


def test_tensor_line_chern_rank_two_top():
    n, k = 3, 1
    out = tensor_line_chern(2, 2, [ONE, tangent_chern(1), tangent_chern(2)], OMEGA, n, k)
    assert out == {(2, 0, 0): 1, (1, 1, 0): 1, (0, 2, 0): 1}


def test_tensor_line_chern_rejects_p_above_rank():
    n, k = 2, 1
    with pytest.raises(KEnergyError):
        tensor_line_chern(1, 2, [ONE, ONE, ONE], OMEGA, n, k)


def test_jet_chern_on_a_curve():
    # c_1(J_1) on a curve: 2*omega - c_1
    derived = derive_jet_top_chern(1, 1)
    assert derived == {(0, 1, 0): 2, (1, 0, 0): -1}


def test_jet_chern_surface_format_one():
    derived = derive_jet_top_chern(2, 1)
    assert derived == {(0, 2, 1): 6, (1, 1, 1): -2}


def test_jet_chern_surface_format_zero():
    # closed form (-1)^i (n-i+1) C(n-i, 0) at n = k = 2: coefficients (3, -2, 1)
    derived = derive_jet_top_chern(2, 2)
    assert derived == {(0, 2, 0): 3, (1, 1, 0): -2, (2, 0, 0): 1}


def test_jet_chern_matches_closed_form_up_to_six():
    for n in range(1, 7):
        for k in range(1, n + 1):
            assert derive_jet_top_chern(n, k) == jet_top_chern_closed_form(n, k)


def test_binomial_recombination_identity():
    for n in range(0, 13):
        for k in range(0, n + 1):
            for i in range(0, k + 1):
                lhs = (n - k + 1) * comb(n - i, n - k) + (n - i) * comb(n - i - 1, n - k)
                assert lhs == (n - i + 1) * comb(n - i, n - k)


def test_graded_multiplication_commutes_and_associates():
    n, k = 3, 1
    a = {(0, 1, 0): Fraction(2), (0, 0, 1): Fraction(1, 3)}
    b = {(1, 0, 0): Fraction(-1), (0, 1, 1): Fraction(5)}
    c = {(0, 0, 0): Fraction(1, 2), (0, 2, 0): Fraction(7)}
    assert _times(a, b, n, k) == _times(b, a, n, k)
    assert _times(_times(a, c, n, k), b, n, k) == _times(a, _times(c, b, n, k), n, k)


def test_truncation_kills_overflow_grades():
    n, k = 2, 1
    assert _times(_times(OMEGA, OMEGA, n, k), OMEGA, n, k) == {}
    assert _times(OMEGA_FS, OMEGA_FS, n, k) == {}
    # c_1 omega survives at n = 2, c_2 omega does not
    assert _times(tangent_chern(1), OMEGA, n, k) == {(1, 1, 0): 1}
    assert _times(tangent_chern(2), OMEGA, n, k) == {}


def test_product_of_two_higher_chern_symbols_is_refused():
    with pytest.raises(KEnergyError):
        _times(tangent_chern(1), tangent_chern(1), 3, 1)


def test_unit_and_generators():
    n, k = 3, 1
    for x in (OMEGA, OMEGA_FS, tangent_chern(2), {(1, 1, 1): Fraction(3, 4)}):
        assert _times(ONE, x, n, k) == x
    assert _times(OMEGA, OMEGA_FS, n, k) == {(0, 1, 1): 1}


def test_hypersurface_mu_conic_and_quadric():
    assert hypersurface_mu(1, 2) == (1, 1)
    assert hypersurface_mu(2, 2) == (1, 2, 2)


def test_rational_curve_profile():
    assert rational_curve_profile(3) == (1, Fraction(2, 3))
    assert rational_curve_profile(4) == (1, Fraction(1, 2))


def test_mu_zero_is_one_everywhere():
    for n in range(1, 5):
        for d in range(2, 6):
            assert hypersurface_mu(n, d)[0] == 1
