"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`.  Tolerances are pinned here
and nowhere else; "within 1%" slope criteria use max(0.01*|A|, 0.01) so the
zero-slope cases carry the stated absolute 0.01.
"""

import math
import time

import numpy as np
from scipy.linalg import expm

from kenergy.asymptotics import slope_fit, slope_integer, stability_scan
from kenergy.catalog import build_instance
from kenergy.chern import derive_jet_top_chern, jet_top_chern_closed_form, rational_curve_profile
from kenergy.energy import (
    build_pair_vectors,
    directional_derivative,
    energy_coefficients,
    energy_via_formula,
    minimize_energy,
)
from kenergy.invariants import VarietyData, degree_vector, hyperdiscriminant_degree, mu_from_degrees
from kenergy.numeric import QuadratureSpec, energy_quadrature, gauss_bonnet, mu_quadrature
from kenergy.pairing import GroupElement, OneParamSubgroup

from conftest import random_float_sl


def report(num, text):
    print(f"\n[PASS] criterion {num}: {text}")


def test_criterion_01_jet_chern_derivation():
    start = time.time()
    for n in range(1, 7):
        for k in range(1, n + 1):
            assert derive_jet_top_chern(n, k) == jet_top_chern_closed_form(n, k)
    elapsed = time.time() - start
    assert elapsed < 1.0
    report(1, f"jet top Chern class derivation matches the closed form for all "
              f"1 <= k <= n <= 6 ({elapsed:.2f}s)")


def test_criterion_02_degree_oracles(quadric_surface):
    start = time.time()
    for d in range(2, 7):
        data = VarietyData(n=1, N=d, d=d, mu=rational_curve_profile(d))
        assert hyperdiscriminant_degree(data, 1) == 2 * d - 2
    hyper = quadric_surface.discriminants.hyper
    assert hyperdiscriminant_degree(quadric_surface.data, 1) == 4
    assert hyper[1].homogeneous_degree() == 4
    assert hyperdiscriminant_degree(quadric_surface.data, 2) == 2
    assert hyper[2].homogeneous_degree() == 2
    for data in (VarietyData(n=1, N=2, d=2, mu=rational_curve_profile(2)),
                 VarietyData(n=1, N=5, d=5, mu=rational_curve_profile(5)),
                 quadric_surface.data):
        assert hyperdiscriminant_degree(data, 0) == (data.n + 1) * data.d
    elapsed = time.time() - start
    assert elapsed < 1.0
    report(2, f"degree formula reproduces 2d-2, 4, 2 and (n+1)d exactly ({elapsed:.2f}s)")


def test_criterion_03_build_consistency(conic, twisted_cubic, quadric_surface):
    start = time.time()
    instances = (conic, twisted_cubic, quadric_surface,
                 build_instance("rational_normal_curve(4)"))
    for instance in instances:
        data = instance.data
        assert instance.discriminants.chow.homogeneous_degree() == \
            hyperdiscriminant_degree(data, 0)
        for i, poly in instance.discriminants.hyper.items():
            assert poly.homogeneous_degree() == hyperdiscriminant_degree(data, i)
        degs = degree_vector(data, data.n)
        for k in range(data.n + 1):
            assert mu_from_degrees(degs[: k + 1], data.d, data.n, k) == data.mu[k]
    elapsed = time.time() - start
    assert elapsed < 1.0
    report(3, f"catalog degrees match the formula and mu round-trips exactly "
              f"({elapsed:.2f}s)")


PAIR_IDENTITY_CASES = (
    ("conic", 1, (-2, 4)),
    ("rational_normal_curve(3)", 1, (-4, 6)),
    ("rational_normal_curve(4)", 1, (-6, 8)),
    ("quadric_surface", 1, (-4, 6)),
    ("quadric_surface", 2, (-2, 6, -6)),
)


def test_criterion_04_pair_identity(conic, twisted_cubic, quadric_surface):
    start = time.time()
    lookup = {"conic": conic, "rational_normal_curve(3)": twisted_cubic,
              "quadric_surface": quadric_surface,
              "rational_normal_curve(4)": build_instance("rational_normal_curve(4)")}
    for name, k, c in PAIR_IDENTITY_CASES:
        instance = lookup[name]
        # exact integers: the exponent of each Delta_i in v_k minus that in w_k
        v, w = build_pair_vectors(instance, k)
        assert tuple(a - b for a, b in zip(v, w)) == c
        assert energy_coefficients(instance, k) == c
        ident = GroupElement.identity(instance.N + 1)
        assert energy_via_formula(instance, ident, k).total == 0.0
    elapsed = time.time() - start
    assert elapsed < 30.0
    report(4, f"the pair (v_k, w_k) nets to the energy coefficients c exactly on "
              f"{len(PAIR_IDENTITY_CASES)} cases, and M_k(I) = 0 ({elapsed:.2f}s)")


SLOPE_CASES = (
    ("conic", 1, (1, 0, -1), 0),
    ("conic", 1, (2, -1, -1), -6),
    ("quadric_surface", 2, (3, -1, -1, -1), -8),
    ("quadric_surface", 2, (1, 1, -1, -1), 0),
)


def test_criterion_05_integer_slopes(conic, quadric_surface):
    start = time.time()
    lookup = {"conic": conic, "quadric_surface": quadric_surface}
    for name, k, weights, expected in SLOPE_CASES:
        instance = lookup[name]
        assert slope_integer(instance, k, OneParamSubgroup(weights)) == expected
        # independent oracle: raw enumeration over expanded exponent data
        v, w = build_pair_vectors(instance, k)

        def enumerated(exponents):
            total = 0
            for i, power in enumerate(exponents):
                poly = instance.polynomial(i)
                best = None
                for exp in poly.term_dict():
                    cols = [0] * poly.shape[1]
                    for row in exp:
                        for c, e in enumerate(row):
                            cols[c] += e
                    weight = sum(cc * aa for cc, aa in zip(cols, weights))
                    best = weight if best is None else min(best, weight)
                total += power * best
            return total

        assert enumerated(v) - enumerated(w) == expected
    elapsed = time.time() - start
    assert elapsed < 5.0
    report(5, f"integer slopes 0, -6, -8, 0 confirmed by brute-force enumeration "
              f"({elapsed:.2f}s)")


def test_criterion_06_algebraic_slope_fit(conic, quadric_surface):
    start = time.time()
    lookup = {"conic": conic, "quadric_surface": quadric_surface}
    samples = [10.0**-j for j in range(1, 7)]
    for name, k, weights, expected in SLOPE_CASES:
        reportee = slope_fit(lookup[name], k, OneParamSubgroup(weights), samples)
        assert reportee.a_k == expected
        assert abs(reportee.fit_slope - expected) <= max(0.01 * abs(expected), 0.01)
    elapsed = time.time() - start
    assert elapsed < 10.0
    report(6, f"log-norm slope fits match A_k within 1% down to |t| = 1e-6 "
              f"({elapsed:.1f}s)")


def test_criterion_07_analytic_slope_cross_check(conic):
    start = time.time()
    spec = QuadratureSpec(radial=160, angular=16, path_nodes=24)
    samples = [1e-1, 1e-2, 1e-3, 1e-4]
    for weights, expected in (((1, 0, -1), 0), ((2, -1, -1), -6)):
        energies = []
        for t in samples:
            xi = np.diag(np.array(weights, dtype=float)) * math.log(t)
            energies.append(energy_quadrature(conic, xi, spec))
        xs = np.array([2.0 * math.log(t) for t in samples])
        design = np.vstack([xs, np.ones_like(xs)]).T
        (slope, _), *_ = np.linalg.lstsq(design, np.array(energies), rcond=None)
        assert abs(slope - expected) <= max(0.01 * abs(expected), 0.01), (weights, slope)
    elapsed = time.time() - start
    assert elapsed < 300.0
    report(7, f"quadrature energy slopes match A_1 within 1% along both conic "
              f"degenerations ({elapsed:.1f}s)")


def test_criterion_08_path_independence(conic):
    start = time.time()
    spec = QuadratureSpec(radial=192, angular=16, path_nodes=24)
    xi = np.diag([0.9, -0.2, -0.7]).astype(complex)
    via_exp = energy_quadrature(conic, xi, spec, path="exponential")
    via_affine = energy_quadrature(conic, xi, spec, path="affine")
    assert abs(via_exp - via_affine) < 1e-5
    elapsed = time.time() - start
    assert elapsed < 300.0
    report(8, f"exponential and affine paths agree within 1e-5 "
              f"(difference {abs(via_exp - via_affine):.2e}, {elapsed:.1f}s)")


def test_criterion_09_mu_and_gauss_bonnet(conic, twisted_cubic):
    start = time.time()
    quartic = build_instance("rational_normal_curve(4)")
    for instance, want in ((conic, 1.0), (twisted_cubic, 2 / 3), (quartic, 0.5)):
        mu = mu_quadrature(instance, QuadratureSpec(radial=160, angular=16))
        assert abs(mu.mu1 - want) < 1e-5
    rng = np.random.default_rng(77)
    spec = QuadratureSpec(radial=160, angular=64)
    for _ in range(5):
        xi = 0.35 * (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
        xi -= np.trace(xi) / 3 * np.eye(3)
        assert abs(gauss_bonnet(conic, expm(xi), spec) - 2.0) < 1e-4
    elapsed = time.time() - start
    assert elapsed < 120.0
    report(9, f"mu_1 = 2/d within 1e-5 for d = 2,3,4 and Gauss-Bonnet = 2 within "
              f"1e-4 under 5 random sigma ({elapsed:.1f}s)")


def test_criterion_10_pair_structure(conic, twisted_cubic, quadric_surface):
    start = time.time()
    for instance in (conic, twisted_cubic, quadric_surface):
        for k in range(1, instance.n + 1):
            v, w = build_pair_vectors(instance, k)
            degrees = [instance.polynomial(i).total_degree() for i in range(k + 1)]
            assert sum(e * d for e, d in zip(v, degrees)) == \
                sum(e * d for e, d in zip(w, degrees))
        degs = degree_vector(instance.data, 1)
        assert build_pair_vectors(instance, 1) == ((0, degs[0]), (degs[1], 0))
    elapsed = time.time() - start
    assert elapsed < 1.0
    report(10, f"pair degrees balance and k=1 reduces to (Delta^deg(R), R^deg(Delta)) "
               f"({elapsed:.2f}s)")


def test_criterion_12_stability_scan(conic, quadric_surface):
    start = time.time()
    for instance, k in ((conic, 1), (quadric_surface, 1), (quadric_surface, 2)):
        scan = stability_scan(instance, k, 3)
        assert scan.max_slope <= 0
        assert not scan.destabilizer_found
    elapsed = time.time() - start
    assert elapsed < 30.0
    report(12, f"no destabilizing subgroup (A_k > 0) at weight bound 3 "
               f"({elapsed:.1f}s)")


def test_criterion_13_optimizer_contract(conic):
    start = time.time()
    rng = np.random.default_rng(314)
    h = 1e-5
    for _ in range(5):
        sigma = random_float_sl(3, rng)
        xi = 0.8 * (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
        xi -= np.trace(xi) / 3 * np.eye(3)
        analytic = directional_derivative(conic, sigma, 1, xi)
        plus = energy_via_formula(
            conic, GroupElement.from_matrix(sigma.matrix @ expm(h * xi), normalize=True), 1
        ).total
        minus = energy_via_formula(
            conic, GroupElement.from_matrix(sigma.matrix @ expm(-h * xi), normalize=True), 1
        ).total
        fd = (plus - minus) / (2 * h)
        assert abs(analytic - fd) <= 1e-4 * max(1.0, abs(fd))
    for seed in range(5):
        sigma0 = random_float_sl(3, np.random.default_rng(1000 + seed), scale=0.5)
        trace = minimize_energy(conic, 1, sigma0, max_iters=20)
        assert all(b <= a + 1e-12 for a, b in zip(trace.energies, trace.energies[1:]))
        assert trace.final_energy <= trace.energies[0]
    elapsed = time.time() - start
    assert elapsed < 60.0
    report(13, f"analytic derivatives match finite differences (< 1e-4 rel.) and "
               f"descent is monotone from 5 seeded starts ({elapsed:.1f}s)")
