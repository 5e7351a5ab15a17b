import math
from dataclasses import fields

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss
from scipy.linalg import expm

from kenergy import numeric
from kenergy.energy import random_sl
from kenergy.errors import KEnergyError
from kenergy.numeric import (
    CurveChart,
    QuadratureSpec,
    _plucker_fields,
    curve_charts,
    energy_quadrature,
    gauss_bonnet,
    metric_density_log,
    mu_quadrature,
    numeric_slope,
    volume_and_chern,
)

from oracles import bergman_metric, chern1_density, toric_energy

FAST = QuadratureSpec(radial=96, angular=16, path_nodes=16)


@pytest.fixture(scope="module")
def conic_charts(conic):
    return curve_charts(conic)


def test_charts_require_curves(quadric_surface):
    with pytest.raises(KEnergyError):
        curve_charts(quadric_surface)


def test_chart_structure(conic_charts):
    affine, infinity = conic_charts
    assert affine.powers == (0, 1, 2)
    assert infinity.powers == (2, 1, 0)


def test_bergman_metric_values(conic_charts):
    affine = conic_charts[0]
    ident = np.eye(3, dtype=complex)
    assert abs(bergman_metric(affine, ident, 0.0) - 1.0) < 1e-12
    assert abs(bergman_metric(affine, ident, 1.0) - 2.0 / 3.0) < 1e-12


def test_bergman_metric_circle_symmetry(conic_charts):
    affine = conic_charts[0]
    ident = np.eye(3, dtype=complex)
    z = 0.7
    for theta in (0.3, 1.1, 2.9):
        rotated = z * complex(math.cos(theta), math.sin(theta))
        assert abs(bergman_metric(affine, ident, rotated) - bergman_metric(affine, ident, z)) < 1e-12


def test_metric_positive_on_grid(conic_charts):
    rng = np.random.default_rng(2)
    xi = 0.4 * (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    xi -= np.trace(xi) / 3 * np.eye(3)
    sigma = expm(xi)
    for chart in conic_charts:
        z = rng.uniform(0.01, 1.0, 50) * np.exp(1j * rng.uniform(0, 2 * np.pi, 50))
        h = bergman_metric(chart, sigma, z)
        assert np.all(h > 0)


def test_chart_overlap_consistency(conic_charts):
    # h_w(1/z) |1/z|^2 == h_z(z) |z|^2 on the overlap
    affine, infinity = conic_charts
    rng = np.random.default_rng(5)
    xi = 0.3 * (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    xi -= np.trace(xi) / 3 * np.eye(3)
    S = expm(xi)
    for r, th in ((1.0, 0.4), (0.8, 2.0), (1.2, 5.1)):
        u = math.log(r)
        a = metric_density_log(affine, S, np.array([u]), np.array([th]))[0]
        b = metric_density_log(infinity, S, np.array([-u]), np.array([-th]))[0]
        assert abs(a - b) < 1e-10


@pytest.mark.parametrize("fixture", ["conic", "twisted_cubic"])
def test_metric_density_against_the_lagrange_oracle(request, fixture):
    # h |z|^2 from the z-derivative of the sections (Lagrange identity)
    # against the program's closed-form density in w = log z
    instance = request.getfixturevalue(fixture)
    rng = np.random.default_rng(43)
    for _ in range(3):
        sigma = random_sl(instance.N + 1, rng)
        for chart in curve_charts(instance):
            z = rng.uniform(0.05, 1.0, 20) * np.exp(1j * rng.uniform(0, 2 * np.pi, 20))
            want = bergman_metric(chart, sigma, z) * np.abs(z) ** 2
            got = np.exp(metric_density_log(chart, sigma, np.log(np.abs(z)), np.angle(z)))
            assert np.max(np.abs(got / want - 1.0)) < 1e-10


def test_chern1_density_round_conic_positive(conic_charts):
    # the balanced diagonal gives |sigma T|^2 proportional to (1+|z|^2)^2, the
    # round metric, whose curvature is positive everywhere
    affine = conic_charts[0]
    root6 = 2.0 ** (1.0 / 6.0)
    sigma = np.diag([1.0 / root6, math.sqrt(2.0) / root6, 1.0 / root6]).astype(complex)
    assert chern1_density(affine, sigma, 0.0) > 0
    assert chern1_density(affine, sigma, 1.0) > 0
    # constant curvature: c_1 = omega pointwise (both integrate to 2), read
    # off the closed-form densities (per du dtheta, so z = 0 is left out)
    z = np.array([1e-3, 0.3 + 0.4j, 1.0, -0.9j, 0.6 - 0.2j, 2.5j])
    _, _, h, ddbar, _ = _plucker_fields(sigma, affine.powers, affine.sections(z))
    assert np.max(np.abs(-ddbar / h - 1.0)) < 1e-12


@pytest.mark.parametrize("fixture", ["conic", "twisted_cubic"])
def test_closed_form_chern_density_against_the_stencil(request, fixture):
    # independent oracle: chern1_density takes a z-coordinate finite-difference
    # Laplacian of log h; the closed form is per du dtheta, so it is divided
    # by |z|^2 to give the density per dx dy
    instance = request.getfixturevalue(fixture)
    rng = np.random.default_rng(41)
    sigma = random_sl(instance.N + 1, rng)
    for chart in curve_charts(instance):
        z = rng.uniform(0.05, 1.0, 20) * np.exp(1j * rng.uniform(0, 2 * np.pi, 20))
        ddbar = _plucker_fields(sigma, chart.powers, chart.sections(z))[3]
        closed = -ddbar / math.pi / np.abs(z) ** 2
        stencil = np.array([chern1_density(chart, sigma, point) for point in z])
        assert np.max(np.abs(closed / stencil - 1.0)) < 1e-6


def test_chern1_density_identity_metric_signs(conic_charts):
    # the unbalanced monomial embedding has h = 1 + 2|z|^2 + O(|z|^4) near 0,
    # so the curvature density is negative there and positive at |z| = 1
    affine = conic_charts[0]
    ident = np.eye(3, dtype=complex)
    at_zero = chern1_density(affine, ident, 0.0)
    assert abs(at_zero - (-2.0 / math.pi)) < 1e-6
    assert chern1_density(affine, ident, 1.0) > 0


def test_volume_and_gauss_bonnet_identity_metric(conic):
    vol, chern = volume_and_chern(conic, None, FAST)
    assert abs(vol - 2.0) < 1e-5
    assert abs(chern - 2.0) < 1e-4


def test_mu_quadrature_catalog_curves(conic, twisted_cubic):
    from kenergy.catalog import build_instance

    for instance, want in ((conic, 1.0), (twisted_cubic, 2.0 / 3.0),
                           (build_instance("rational_normal_curve(4)"), 0.5)):
        report = mu_quadrature(instance, FAST)
        assert abs(report.mu1 - want) < 1e-5
        assert abs(report.volume - instance.data.d) < 1e-5


def test_gauss_bonnet_random_sigma(conic):
    rng = np.random.default_rng(31)
    spec = QuadratureSpec(radial=96, angular=64, path_nodes=16)
    for _ in range(2):
        xi = 0.35 * (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
        xi -= np.trace(xi) / 3 * np.eye(3)
        value = gauss_bonnet(conic, expm(xi), spec)
        assert abs(value - 2.0) < 1e-4


def test_energy_quadrature_zero_direction(conic):
    value = energy_quadrature(conic, np.zeros((3, 3)), FAST)
    assert abs(value) < 1e-8


def test_energy_quadrature_requires_traceless(conic):
    with pytest.raises(KEnergyError):
        energy_quadrature(conic, np.eye(3), FAST)


def test_energy_quadrature_rejects_bad_input(conic):
    with pytest.raises(KEnergyError):
        energy_quadrature(conic, np.diag([1.0, -1.0]), FAST)
    with pytest.raises(KEnergyError):
        energy_quadrature(conic, np.zeros((3, 3)), FAST, path="quadratic")


def test_energy_quadrature_rejects_non_finite_input(conic):
    for xi in (np.diag([np.nan, 0.0, 0.0]), np.diag([np.inf, 0.0, -np.inf])):
        with pytest.raises(KEnergyError, match="non-finite"):
            energy_quadrature(conic, xi)
    with pytest.raises(KEnergyError, match="non-finite"):
        volume_and_chern(conic, np.diag([np.nan, 1.0, 1.0]))


def test_eigenvalue_spread_bound(conic, monkeypatch):
    # rejected before any node is built: 1e3 would ask for 8 * 2025 radial nodes
    for a in (300.0, 1e3):
        with pytest.raises(KEnergyError, match=f"spread {2 * a:g} exceeds 161"):
            energy_quadrature(conic, np.diag([a, 0.0, -a]))
    # along (-1, 2, -1) the densities stay finite up to the bound, and past it
    # the identity's density at the radial cutoff is 0/0
    direction = np.diag([-1.0, 2.0, -1.0]) / 3.0
    assert math.isfinite(energy_quadrature(conic, 160.0 * direction))
    monkeypatch.setattr(numeric, "_MAX_SPREAD", math.inf)
    with np.errstate(invalid="ignore", divide="ignore"):
        assert not math.isfinite(energy_quadrature(conic, 162.0 * direction))


@pytest.mark.parametrize("spread", [100.0, 150.0])
def test_no_finite_wrong_value_at_a_large_spread(conic, spread):
    # along +(2, -1, -1) the c_1 density is 0/0 next to the radial cutoff, so
    # the integral is not finite; a finite value must be the right one
    x = np.array([2.0, -1.0, -1.0]) * spread / 3.0
    with np.errstate(invalid="ignore", divide="ignore"):
        got = energy_quadrature(conic, np.diag(x))
    if math.isfinite(got):
        want = toric_energy([e[0] for e in conic.parametrization], x,
                            float(conic.data.mu[1]), conic.data.d)
        assert abs(got - want) < 1e-6  # 1.3432181 at both spreads


def test_node_tables_are_leggauss_built_once(conic, monkeypatch):
    for n in (8, 24, 160, 421):
        x, w = numeric._gauss_legendre(n)
        want_x, want_w = leggauss(n)
        assert x.tobytes() == want_x.tobytes() and w.tobytes() == want_w.tobytes()
        for table in (x, w):
            with pytest.raises(ValueError, match="read-only"):
                table[0] = 0.0
    xi = np.diag([0.3, -0.1, -0.2])
    calls = []
    monkeypatch.setattr(numeric, "leggauss", lambda n: calls.append(n) or leggauss(n))
    numeric._gauss_legendre.cache_clear()
    energy_quadrature(conic, xi, FAST)
    assert len(calls) == 2  # the radial and the path node counts
    calls.clear()
    energy_quadrature(conic, xi, FAST)
    assert calls == []


def _per_node_energy(instance, xi, path, spec=QuadratureSpec()):
    """energy_quadrature one path node and one block of grid points at a time."""
    u_min = numeric._auto_u_min(spec, xi)
    grid = numeric._log_polar_grid(u_min, numeric._auto_radial(spec, u_min),
                                   numeric._angular_nodes(spec, xi))
    xt, wt = leggauss(spec.path_nodes)
    taus = 0.5 * (xt + 1.0)
    sigmas = [expm(xi * tau) for tau in taus]
    mu1 = float(instance.data.mu[1])
    total = 0.0
    for chart in curve_charts(instance):
        for T, w in numeric._chart_blocks(chart, grid):
            if path == "affine":
                (_, n0, h0, L0, g0), (_, n1, h1, L1, g1) = (
                    _plucker_fields(S, chart.powers, T, gradient=True)
                    for S in (np.eye(instance.N + 1), expm(xi)))
            for tau, wtau, sigma in zip(taus, 0.5 * wt, sigmas):
                if path == "affine":
                    phidot = np.log(n1 / n0)
                    h = (1 - tau) * h0 + tau * h1
                    dh = (1 - tau) * h0 * g0 + tau * h1 * g1
                    ddbar = ((1 - tau) * h0 * (L0 + np.abs(g0) ** 2)
                             + tau * h1 * (L1 + np.abs(g1) ** 2)) / h - np.abs(dh) ** 2 / h**2
                else:
                    U, nU, h, ddbar, _ = _plucker_fields(sigma, chart.powers, T)
                    phidot = np.einsum("im,im->m", (xi + xi.conj().T) @ U, U.conj()).real / nU
                total -= wtau * np.sum(w * phidot * (ddbar + mu1 * h)) / math.pi
    return -2.0 * instance.data.d * total


def test_stacked_evaluation_against_a_per_node_reference(conic, twisted_cubic):
    rng = np.random.default_rng(29)
    for instance in (conic, twisted_cubic):
        xi = _hermitian(instance.N + 1, rng)
        for path in ("exponential", "affine"):
            want = _per_node_energy(instance, xi, path)
            assert abs(energy_quadrature(instance, xi, path=path) / want - 1.0) < 1e-13


def test_diagonal_densities_do_not_depend_on_the_angle(conic, twisted_cubic):
    # the fact behind the one-node angular rule for diagonal xi and sigma
    rng = np.random.default_rng(19)
    theta = np.linspace(0.0, 2.0 * math.pi, 7, endpoint=False)
    for instance in (conic, twisted_cubic):
        size = instance.N + 1
        S = np.diag(np.exp(rng.standard_normal(size) + 1j * rng.standard_normal(size)))
        for chart in curve_charts(instance):
            for r in (1e-3, 0.3, 1.0):
                T = chart.sections(r * np.exp(1j * theta))
                _, _, h, ddbar, _ = _plucker_fields(S, chart.powers, T)
                assert np.max(np.abs(h / h[0] - 1.0)) < 1e-13
                assert np.max(np.abs(ddbar / ddbar[0] - 1.0)) < 1e-13


@pytest.mark.parametrize("fixture,weights,t", [
    ("conic", (2, -1, -1), 1e-1),
    ("conic", (2, -1, -1), 1e-4),
    ("twisted_cubic", (1, -1, -1, 1), 1e-1),
    ("twisted_cubic", (-1, 1, 1, -1), 1e-1),
])
def test_energy_quadrature_against_the_toric_oracle(request, fixture, weights, t):
    # the default spec, as the CLI runs it; at t = 1e-4 its 24 path nodes
    # leave about 1e-10 relative
    instance = request.getfixturevalue(fixture)
    x = np.array(weights, dtype=float) * math.log(t)
    want = toric_energy([e[0] for e in instance.parametrization], x,
                        float(instance.data.mu[1]), instance.data.d)
    got = energy_quadrature(instance, np.diag(x))
    assert abs(got / want - 1.0) < 1e-8


def test_path_independence(conic):
    xi = np.diag([0.9, -0.2, -0.7]).astype(complex)
    spec = QuadratureSpec(radial=192, angular=16, path_nodes=24)
    exp_value = energy_quadrature(conic, xi, spec, path="exponential")
    affine_value = energy_quadrature(conic, xi, spec, path="affine")
    assert abs(exp_value - affine_value) < 1e-5


def _hermitian(size, rng):
    """A seeded Hermitian traceless xi with eigenvalues 1/2 ... -1/2."""
    q, _ = np.linalg.qr(rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size)))
    return q @ np.diag(np.linspace(0.5, -0.5, size)) @ q.conj().T


def test_paths_agree_at_a_hermitian_xi(conic, twisted_cubic):
    # the paths share the surface nodes and the curvature is exact, so they
    # differ only by the path-node quadrature
    rng = np.random.default_rng(17)
    for instance in (conic, twisted_cubic):
        xi = _hermitian(instance.N + 1, rng)
        values = [energy_quadrature(instance, xi, path=path)
                  for path in ("exponential", "affine")]
        assert max(values) - min(values) < 1e-10


def test_gauss_bonnet_to_rounding(conic, twisted_cubic):
    # exact curvature leaves only the surface quadrature's error; at this
    # RNC(3) sigma the default 64 angular nodes alone miss by 2.8e-10, so the
    # angular rule is doubled
    rng = np.random.default_rng(23)
    spec = QuadratureSpec(angular=128)
    for instance in (conic, twisted_cubic):
        _, chern = volume_and_chern(instance, expm(_hermitian(instance.N + 1, rng)), spec)
        assert abs(chern - 2.0) < 1e-10


def test_numeric_slope_short_grid(conic):
    report = numeric_slope(conic, (2, -1, -1), [1e-1, 10 ** -1.75, 10 ** -2.5], FAST, -6)
    assert abs(report.fit_slope - (-6)) < 0.25  # coarse grid, sanity only


def test_numeric_slope_rejects_magnitudes_outside_the_unit_interval(conic):
    for samples in ([1e-1, 2.0], [0.0, 1e-2], [-1e-1, 1e-2]):
        with pytest.raises(KEnergyError):
            numeric_slope(conic, (2, -1, -1), samples, FAST, -6)


def test_quadrature_spec_validation():
    with pytest.raises(KEnergyError):
        QuadratureSpec(radial=4)
    # node counts and the radial cutoff; no step or tolerance knobs
    assert [f.name for f in fields(QuadratureSpec)] == ["radial", "angular", "path_nodes", "u_min"]


def test_chart_requires_constant_section():
    with pytest.raises(KEnergyError):
        CurveChart(powers=(1, 2), name="bad")
