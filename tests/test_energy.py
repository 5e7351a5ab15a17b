from fractions import Fraction

import numpy as np
import pytest
from scipy.linalg import expm

import kenergy.energy as energy_mod
from kenergy.energy import (
    build_pair_vectors,
    directional_derivative,
    energy_coefficients,
    energy_via_formula,
    minimize_energy,
    sl_basis,
)
from kenergy.catalog import DiscriminantSet, VarietyInstance
from kenergy.errors import FormatRangeError, KEnergyError
from kenergy.exactpoly import MatrixPoly, lie_derivative
from kenergy.pairing import GroupElement, dense_form, fs_norm_sq, log_norm_ratio, moment_matrix
from conftest import random_float_sl, random_rational_sl, seeded
from oracles import fs_inner


def pair_degree(instance, exponents):
    """Total degree of the tensor with these exponents, from the stored polynomials."""
    return sum(e * instance.polynomial(i).total_degree() for i, e in enumerate(exponents))


def test_pair_vectors_conic(conic):
    v, w = build_pair_vectors(conic, 1)
    assert (v, w) == ((0, 4), (2, 0))
    assert pair_degree(conic, v) == pair_degree(conic, w) == 8


def test_pair_vectors_quadric_k1(quadric_surface):
    v, w = build_pair_vectors(quadric_surface, 1)
    assert (v, w) == ((0, 6), (4, 0))
    assert pair_degree(quadric_surface, v) == pair_degree(quadric_surface, w) == 24


def test_pair_vectors_quadric_k2(quadric_surface):
    v, w = build_pair_vectors(quadric_surface, 2)
    assert (v, w) == ((2, 6, 0), (4, 0, 6))
    assert pair_degree(quadric_surface, v) == pair_degree(quadric_surface, w) == 36


def test_pair_degree_balance_identity(conic, twisted_cubic, quadric_surface):
    from kenergy.catalog import build_instance
    from kenergy.chern import comb
    from kenergy.invariants import degree_vector

    for instance in (conic, twisted_cubic, quadric_surface,
                     build_instance("rational_normal_curve(4)")):
        n = instance.n
        for k in range(1, n + 1):
            v, w = build_pair_vectors(instance, k)
            dv = degree_vector(instance.data, k)
            expected = dv[0] * sum(comb(n - i, n - k) * dv[i] for i in range(1, k + 1))
            assert pair_degree(instance, v) == expected
            assert pair_degree(instance, w) == expected


def test_energy_zero_at_identity(conic, quadric_surface):
    for instance, ks in ((conic, (1,)), (quadric_surface, (1, 2))):
        ident = GroupElement.identity(instance.N + 1)
        for k in ks:
            assert energy_via_formula(instance, ident, k).total == 0.0


def test_energy_invariant_torus_on_conic(conic):
    sigma = GroupElement.diagonal([2, 1, Fraction(1, 2)])
    assert energy_via_formula(conic, sigma, 1).total == 0.0


def test_inadmissible_k_rejected(conic):
    with pytest.raises(FormatRangeError):
        energy_via_formula(conic, GroupElement.identity(3), 2)


def test_energy_coefficients(conic, twisted_cubic, quadric_surface):
    # M_1 = 4 LR(D) - 2 LR(R) on the conic and M_2 = 6 LR(D1) - 6 LR(D0) - 2 LR(R)
    # on the quadric; every c is degree-balanced, sum_i c_i deg Delta_i = 0,
    # which is why M_k does not see the scale of sigma.P
    from kenergy.invariants import degree_vector

    for instance in (conic, twisted_cubic, quadric_surface):
        for k in range(1, instance.n + 1):
            c = energy_coefficients(instance, k)
            assert all(isinstance(v, int) for v in c)
            assert sum(ci * di for ci, di in zip(c, degree_vector(instance.data, k))) == 0


def test_symbolic_structure_quadric_k2(quadric_surface):
    # M_2 = 6 LR(D1) - 6 LR(D0) - 2 LR(R), with R the Chow form
    assert energy_coefficients(quadric_surface, 2) == (-2, 6, -6)
    sigma = random_float_sl(4, np.random.default_rng(21))
    ratios = [log_norm_ratio(sigma, quadric_surface.polynomial(i)) for i in range(3)]
    total = energy_via_formula(quadric_surface, sigma, 2).total
    assert abs(total - (6 * ratios[1] - 6 * ratios[2] - 2 * ratios[0])) < 1e-9


def test_symbolic_recursion_k1_reduces_to_two_terms(conic):
    # M_1 = 4 LR(D) - 2 LR(R): one term of the sum, two log-norm ratios
    assert energy_coefficients(conic, 1) == (-2, 4)
    sigma = random_float_sl(3, np.random.default_rng(22))
    breakdown = energy_via_formula(conic, sigma, 1)
    assert len(breakdown.terms) == 1
    ratios = [log_norm_ratio(sigma, conic.polynomial(i)) for i in range(2)]
    assert abs(breakdown.total - (4 * ratios[1] - 2 * ratios[0])) < 1e-9


def test_exact_and_floating_sigma_agree(conic, quadric_surface):
    # an exact rational sigma is substituted in Gaussian-rational arithmetic,
    # its floating copy in complex arithmetic: two lanes of right_substitute
    rng = seeded(77)
    for instance, ks in ((conic, (1,)), (quadric_surface, (1, 2))):
        for _ in range(2):
            sigma = random_rational_sl(instance.N + 1, rng)
            floating = GroupElement.from_matrix(sigma.matrix)
            for k in ks:
                exact = energy_via_formula(instance, sigma, k).total
                assert abs(exact - energy_via_formula(instance, floating, k).total) < 1e-9


def test_discriminant_rescaling_leaves_energy(conic):
    scaled = VarietyInstance(
        name="conic-rescaled",
        data=conic.data,
        parametrization=conic.parametrization,
        discriminants=DiscriminantSet(
            chow=conic.discriminants.chow.scale(Fraction(5, 3)),
            hyper={1: conic.discriminants.hyper[1].scale(-7)},
        ),
    )
    rng = np.random.default_rng(21)
    for _ in range(5):
        sigma = random_float_sl(3, rng)
        a = energy_via_formula(conic, sigma, 1).total
        b = energy_via_formula(scaled, sigma, 1).total
        assert abs(a - b) < 1e-9


def test_energy_cocycle(quadric_surface):
    from kenergy.exactpoly import right_substitute

    rng = np.random.default_rng(33)
    sigma = random_float_sl(4, rng)
    tau = random_float_sl(4, rng)
    translated = VarietyInstance(
        name="qs-translated",
        data=quadric_surface.data,
        parametrization=quadric_surface.parametrization,
        discriminants=DiscriminantSet(
            chow=right_substitute(quadric_surface.discriminants.chow, tau.entries),
            hyper={
                i: right_substitute(p, tau.entries)
                for i, p in quadric_surface.discriminants.hyper.items()
            },
        ),
    )
    for k in (1, 2):
        composed = GroupElement.from_matrix(sigma.matrix @ tau.matrix)
        lhs = energy_via_formula(quadric_surface, composed, k).total
        rhs = (
            energy_via_formula(translated, sigma, k).total
            + energy_via_formula(quadric_surface, tau, k).total
        )
        assert abs(lhs - rhs) < 1e-9


def test_breakdown_fields(quadric_surface):
    rng = np.random.default_rng(8)
    sigma = random_float_sl(4, rng)
    breakdown = energy_via_formula(quadric_surface, sigma, 2)
    assert [t.i for t in breakdown.terms] == [1, 2]
    assert [t.coefficient for t in breakdown.terms] == [1, -1]
    assert breakdown.terms[0].deg_chow == 6
    assert [t.deg_hyper for t in breakdown.terms] == [4, 2]
    assert abs(sum(t.contribution for t in breakdown.terms) - breakdown.total) < 1e-12


def test_directional_derivative_matches_finite_differences(conic, twisted_cubic, quadric_surface):
    cases = [(conic, 1, 5), (twisted_cubic, 1, 2), (quadric_surface, 1, 2), (quadric_surface, 2, 2)]
    rng = np.random.default_rng(55)
    h = 1e-5
    for instance, k, trials in cases:
        size = instance.N + 1
        for _ in range(trials):
            sigma = random_float_sl(size, rng)
            xi = 0.7 * (rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size)))
            xi -= np.trace(xi) / size * np.eye(size)
            analytic = directional_derivative(instance, sigma, k, xi)
            plus = energy_via_formula(
                instance, GroupElement.from_matrix(sigma.matrix @ expm(h * xi), normalize=True), k
            ).total
            minus = energy_via_formula(
                instance, GroupElement.from_matrix(sigma.matrix @ expm(-h * xi), normalize=True), k
            ).total
            fd = (plus - minus) / (2 * h)
            assert abs(analytic - fd) <= 1e-4 * max(1.0, abs(fd))


def test_derivative_along_the_identity_vanishes(conic, twisted_cubic, quadric_surface):
    # sigma e^{s I} scales each stored polynomial by e^{s deg}, and the degree
    # combination of the formula cancels: M_k is constant along I
    cases = [(conic, 1), (twisted_cubic, 1), (quadric_surface, 1), (quadric_surface, 2)]
    rng = np.random.default_rng(8)
    for instance, k in cases:
        size = instance.N + 1
        for _ in range(2):
            sigma = random_float_sl(size, rng, scale=0.5)
            assert abs(directional_derivative(instance, sigma, k, np.eye(size))) <= 1e-10


@pytest.mark.parametrize("fixture, k", [("conic", 1), ("quadric_surface", 2)])
def test_gradient_substitutes_once_per_stored_polynomial(request, monkeypatch, fixture, k):
    instance = request.getfixturevalue(fixture)
    calls = []
    substitute = energy_mod.dense_image

    def counting(sigma, form):
        calls.append(sorted(form))
        return substitute(sigma, form)

    # the gradient is the only caller of energy.dense_image; energies go
    # through pairing.log_norm_ratio
    monkeypatch.setattr(energy_mod, "dense_image", counting)
    sigma0 = random_float_sl(instance.N + 1, np.random.default_rng(4), scale=0.5)
    grads = energy_mod.sl_gradient(instance, sigma0, k, np.array(sl_basis(instance.N + 1)))
    assert np.isfinite(grads).all()
    assert len(calls) == k + 1  # not 2 (k + 1) (2 (N + 1)^2 - 2)


def test_moment_matrix_against_lie_derivative_pairing():
    # M[j, c] = <L_jc q, q>/|q|^2 against the pairing of the Lie derivative
    # along E_jc (exactpoly.lie_derivative, oracles.fs_inner), on random
    # multihomogeneous polynomials with row degrees up to 6 and on one whose
    # terms have two different row-degree vectors
    rng = seeded(21)
    for shape, degrees in (((2, 3), [(2, 3)]), ((3, 4), [(1, 0, 4)]), ((1, 5), [(6,)]),
                           ((2, 3), [(1, 2), (2, 0)])):
        terms = {}
        for _ in range(30):
            rows = []
            for d in rng.choice(degrees):
                cuts = sorted(rng.randint(0, d) for _ in range(shape[1] - 1))
                rows.append(tuple(b - a for a, b in zip([0] + cuts, cuts + [d])))
            terms[tuple(rows)] = complex(rng.gauss(0, 1), rng.gauss(0, 1))
        q = MatrixPoly(shape, terms)
        cols = shape[1]
        moment = moment_matrix(dense_form(q), cols)
        for j in range(cols):
            for c in range(cols):
                xi = np.zeros((cols, cols), dtype=complex)
                xi[j, c] = 1.0
                want = fs_inner(lie_derivative(q, xi), q) / fs_norm_sq(q)
                assert abs(moment[j, c] - want) <= 1e-12 * max(1.0, abs(want))


def test_identity_gradient_from_the_oracle(conic):
    # the gradient oracle says the identity is NOT critical for this
    # parametrization: along diag(1, -1, 0) the derivative is
    # 4 * (2*15/(33/2)) - 2 * (2*6/(15/2)) = 80/11 - 16/5, nonzero
    ident = GroupElement.identity(3)
    xi = np.diag([1.0, -1.0, 0.0]).astype(complex)
    value = directional_derivative(conic, ident, 1, xi)
    assert abs(value - (80 / 11 - 16 / 5)) < 1e-10
    grads = [directional_derivative(conic, ident, 1, b) for b in sl_basis(3)]
    assert max(abs(g) for g in grads) > 1.0


def test_minimizer_descends_from_identity(conic):
    trace = minimize_energy(conic, 1, GroupElement.identity(3), max_iters=20)
    assert len(trace.energies) > 1
    assert trace.final_energy < 0.0  # strictly below M_1(identity) = 0


@pytest.mark.parametrize("options", [{"step": 0.0}, {"step": -1.0}, {"step": float("inf")},
                                     {"step": float("nan")}, {"max_iters": -1}])
def test_minimizer_rejects_a_step_or_cap_out_of_range(conic, options):
    # a step <= 0 used to end the line search at once and report 0 steps
    with pytest.raises(KEnergyError):
        minimize_energy(conic, 1, GroupElement.identity(3), **options)


def test_gradient_norms_belong_to_their_sigmas(conic):
    # a capped run leaves the last sigma without a norm instead of repeating
    # the one before
    sigma0 = random_float_sl(3, np.random.default_rng(8), scale=0.5)
    trace = minimize_energy(conic, 1, sigma0, max_iters=2)
    assert len(trace.sigmas) == 3 and len(trace.gradient_norms) == 2
    for sigma, norm in zip(trace.sigmas, trace.gradient_norms):
        grads = [directional_derivative(conic, sigma, 1, b) for b in sl_basis(3)]
        assert abs(np.linalg.norm(grads) - norm) <= 1e-12 * norm


def test_minimizer_descends_from_seeds(conic):
    rng = np.random.default_rng(99)
    for _ in range(3):
        sigma0 = random_float_sl(3, rng, scale=0.5)
        trace = minimize_energy(conic, 1, sigma0, max_iters=25)
        energies = trace.energies
        assert all(b <= a + 1e-12 for a, b in zip(energies, energies[1:]))
        assert trace.final_energy <= energies[0]
