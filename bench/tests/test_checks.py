"""The benchmark's own checks: each passes on the program's current answers
and rejects a wrong one.

    python3 -m pytest bench/tests -q
"""

import json
import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.linalg import expm as scipy_expm

import checks
import kenergy.catalog
import kenergy.energy
import kenergy.pairing
import workloads
from kenergy.asymptotics import stability_scan
from kenergy.catalog import build_instance, save_instance
from kenergy.chern import derive_jet_top_chern
from kenergy.energy import directional_derivative, energy_via_formula
from kenergy.numeric import QuadratureSpec, volume_and_chern
from kenergy.pairing import GroupElement, OneParamSubgroup, fs_norm_sq


@pytest.fixture(scope="module")
def conic():
    return build_instance("conic")


@pytest.fixture(scope="module")
def quadric():
    return build_instance("quadric_surface")


@pytest.fixture(scope="module")
def cli_quadric(tmp_path_factory):
    """A CliExact workload with the quadric saved where its checks read it."""
    work = workloads.CliExact(seed=3, rounds=1, workdir=str(tmp_path_factory.mktemp("cli")))
    directory = tmp_path_factory.mktemp("quad")
    save_instance(build_instance("quadric_surface"), str(directory))
    work.C, work.E, work.P = kenergy.catalog, kenergy.energy, kenergy.pairing
    return work, str(directory)


def energy(instance, matrix, k):
    return energy_via_formula(instance, GroupElement.from_matrix(matrix), k).total


def test_expm_matches_scipy():
    rng = np.random.default_rng(0)
    for scale in (1e-5, 0.3, 3.0):
        a = workloads._traceless(4, rng, scale)
        ref = scipy_expm(a)
        assert np.max(np.abs(workloads.expm(a) - ref)) <= 1e-12 * np.max(np.abs(ref))
    stack = workloads._traceless(3, rng, 0.5, count=5)
    for a, got in zip(stack, workloads.expm(stack)):
        assert np.allclose(got, scipy_expm(a), rtol=1e-12, atol=1e-14)


def test_identity_check(conic):
    assert checks.identity_is_zero(energy(conic, np.eye(3, dtype=complex), 1))
    assert not checks.identity_is_zero(1e-6)


@pytest.mark.parametrize("name", ["conic", "rational_normal_curve(3)", "quadric_surface"])
def test_automorphism_invariance(name):
    instance = build_instance(name)
    rng = np.random.default_rng(7)
    sigma = workloads.random_sl(instance.N + 1, rng)
    moved = sigma @ workloads.automorphisms(name, rng, 1)[0]
    for k in range(1, instance.n + 1):
        m_sigma = energy(instance, sigma, k)
        m_moved = energy(instance, moved, k)
        assert checks.invariant(m_sigma, m_moved)
        assert not checks.invariant(m_sigma, m_moved * (1 + 1e-6) + 1e-6)


def test_automorphisms_preserve_the_curve():
    rng = np.random.default_rng(1)
    rho = workloads.automorphisms("rational_normal_curve(4)", rng, 1)[0]
    image = rho @ np.array([1.0, 0.5, 0.25, 0.125, 0.0625])
    z = image[1] / image[0]
    assert np.allclose(image / image[0], [z ** j for j in range(5)])
    assert abs(np.linalg.det(rho) - 1) < 1e-12


def test_unitary_check():
    assert checks.unitary_is_zero(0.0)
    assert not checks.unitary_is_zero(1e-3)
    u = workloads.haar_su(4, np.random.default_rng(2))
    assert np.allclose(u @ u.conj().T, np.eye(4)) and abs(np.linalg.det(u) - 1) < 1e-12


def test_large_det_one_inputs_are_valid():
    """The kept det fault uses det-1 input: its determinant misses 1 by far
    less than the Hadamard bound times machine precision."""
    rng = np.random.default_rng(workloads.FAULT_SEED)
    for sigma, moved in workloads.large_det_one(3, rng, 3, lambda g, n: np.eye(3)):
        for m in (sigma, moved):
            hadamard = np.prod(np.linalg.norm(m, axis=1))
            assert 10 < np.max(np.abs(m)) and abs(np.linalg.det(m) - 1) < 1e-12 * hadamard


def test_slope_checks_against_the_program(conic, quadric):
    polys = workloads.instance_polys(quadric, 2)
    assert int(checks.slopes(polys, 2, 2, [(3, -1, -1, -1)])[0]) == -8
    conic_polys = workloads.instance_polys(conic, 1)
    lam = (2, -1, -1)
    want = int(checks.slopes(conic_polys, 1, 1, [lam])[0])
    assert want == -6
    samples = [10.0 ** -j for j in range(2, 9)]
    values = [energy_via_formula(conic, OneParamSubgroup(lam).at(t), 1).total for t in samples]
    fit = checks.fitted_slope(samples, values)
    assert checks.slope_within(fit, want)
    assert not checks.slope_within(-fit, want)  # sign-flipped slope
    assert checks.slope_within(0.005, 0) and not checks.slope_within(0.02, 0)


def test_scan_check(quadric, cli_quadric):
    work, directory = cli_quadric
    report = stability_scan(quadric, 2, 2)
    res = {"maxSlope": report.max_slope, "evaluated": report.n_evaluated}
    assert work._scan_ok(res, directory, 2, 2)
    assert not work._scan_ok(dict(res, maxSlope=report.max_slope + 1), directory, 2, 2)
    assert not work._scan_ok(dict(res, evaluated=report.n_evaluated - 1), directory, 2, 2)


def test_fit_check(cli_quadric):
    work, directory = cli_quadric
    assert work._fit_ok({"Ak": -8, "fitSlope": -7.99}, directory, 2, (3, -1, -1, -1))
    assert not work._fit_ok({"Ak": -8, "fitSlope": 8.0}, directory, 2, (3, -1, -1, -1))
    assert not work._fit_ok({"Ak": 8, "fitSlope": 8.0}, directory, 2, (3, -1, -1, -1))


def _chow_terms(instance):
    return workloads.poly_terms(instance.discriminants.chow)


def _changed(terms, index, delta):
    exp, re, im = terms[index]
    return terms[:index] + [(exp, re + delta, im)] + terms[index + 1:]


def test_chow_check_on_a_curve():
    instance = build_instance("rational_normal_curve(4)")
    terms = _chow_terms(instance)
    points = [(1,) + tuple(Fraction(3, 2) ** p for p in range(1, 5)),
              (1,) + tuple(Fraction(-2) ** p for p in range(1, 5))]
    rng = np.random.default_rng(4)
    assert checks.chow_vanishes_on_x(terms, points, 2, 8, rng)
    for index in range(0, len(terms), 7):
        assert not checks.chow_vanishes_on_x(_changed(terms, index, Fraction(1, 7)),
                                             points, 2, 8, rng)
    assert not checks.chow_vanishes_on_x([], points, 2, 8, rng)
    assert not checks.chow_vanishes_on_x(terms, points, 2, 10, rng)


def test_chow_check_on_the_quadric(quadric):
    terms = _chow_terms(quadric)
    points = [(1, u, v, u * v) for u, v in ((Fraction(2), Fraction(-1, 3)),
                                            (Fraction(5, 2), Fraction(7)))]
    rng = np.random.default_rng(5)
    assert checks.chow_vanishes_on_x(terms, points, 3, 6, rng)
    for index in range(len(terms)):
        assert not checks.chow_vanishes_on_x(_changed(terms, index, Fraction(1)),
                                             points, 3, 6, rng)


def test_norm_check(tmp_path, cli_quadric):
    work, _ = cli_quadric
    poly = build_instance("rational_normal_curve(3)").discriminants.chow
    path = tmp_path / "chow.json"
    path.write_text(json.dumps(poly.to_json_dict()))
    res = {"normSq": fs_norm_sq(poly), "terms": poly.num_terms()}
    assert work._norm_ok(res, str(path))
    assert not work._norm_ok(dict(res, normSq=res["normSq"] * (1 + 1e-6)), str(path))


def test_chern_check():
    for n in range(1, 5):
        for k in range(1, n + 1):
            derived = derive_jet_top_chern(n, k).coefficients
            res = {"match": "PASS", "coefficients": [
                {"i": key[0], "coefficient": str(c)} for key, c in sorted(derived.items())]}
            assert workloads.CliExact._chern_ok(res, n, k)
            assert not workloads.CliExact._chern_ok(dict(res, match="FAIL"), n, k)
            wrong = [dict(c) for c in res["coefficients"]]
            wrong[0]["coefficient"] = str(Fraction(wrong[0]["coefficient"]) + 1)
            assert not workloads.CliExact._chern_ok(dict(res, coefficients=wrong), n, k)


def test_exact_and_float_lanes(cli_quadric):
    work, directory = cli_quadric
    sigma = workloads._exact_sl(4, np.random.default_rng(6))
    exact = energy_via_formula(
        work.C.load_instance(directory), GroupElement.from_matrix(sigma), 2).total
    assert work._lanes_ok({"Mk": exact}, directory, 2, sigma)
    assert not work._lanes_ok({"Mk": exact + 1e-6}, directory, 2, sigma)


def test_descent_checks(conic):
    rng = np.random.default_rng(8)
    sigma = GroupElement.from_matrix(workloads.random_sl(3, rng), normalize=True)
    xi = workloads._traceless(3, rng, 0.8)
    h = 1e-5
    analytic = directional_derivative(conic, sigma, 1, xi)
    plus = energy_via_formula(
        conic, GroupElement.from_matrix(sigma.matrix @ workloads.expm(h * xi), normalize=True), 1)
    minus = energy_via_formula(
        conic, GroupElement.from_matrix(sigma.matrix @ workloads.expm(-h * xi), normalize=True), 1)
    fd = (plus.total - minus.total) / (2 * h)
    assert checks.derivative_matches(analytic, fd)
    assert not checks.derivative_matches(analytic * 1.01, fd)
    assert checks.nonincreasing(1.0, 0.5) and not checks.nonincreasing(0.5, 0.5 + 1e-9)


def test_quadrature_checks(conic):
    sigma = workloads.expm(workloads._traceless(3, np.random.default_rng(9), 0.3))
    volume, chern = volume_and_chern(conic, sigma, QuadratureSpec())
    assert checks.gauss_bonnet(volume, chern, 2)
    assert not checks.gauss_bonnet(volume, chern + 1e-3, 2)
    assert not checks.gauss_bonnet(volume * 1.001, chern, 2)
    assert checks.paths_agree(0.7245703944, 0.7245703856)
    assert not checks.paths_agree(0.72457, 0.72467)
    samples = [1e-1, 1e-2, 1e-3, 1e-4]
    assert math.isclose(checks.fitted_slope(samples, [-6 * 2 * math.log(t) + 1 for t in samples]),
                        -6)
