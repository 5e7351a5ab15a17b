"""Independent analytic cross-check on rational curves: Bergman metrics,
curvature, and quadrature of the defining energy integral.

Conventions (the 2*pi normalization is chosen so characteristic numbers come
out integral):

  omega            (1/pi) h(z) dx dy with h = dd-bar log |sigma T|^2, so the
                   volume integral(omega) equals deg(X)
  c_1 density      -(1/(4 pi)) Laplacian_z log h, integrating to chi = 2
  energy, k = 1    -(n+1)(n-k+1) V  int_0^1 int_X phidot [c_1 - mu_1 omega] dt

Surface integration works in log-polar coordinates w = u + i theta = log z per
chart (|z| <= 1 in the affine chart, |w| <= 1 in the chart at infinity), with
Gauss-Legendre nodes in u and a trapezoidal angular rule.  When every matrix
that defines the metric is diagonal (a diagonal xi, a diagonal sigma or the
identity), |S T(z)|^2 = sum |S_ii|^2 |z|^(2 p_i) depends on |z| alone, every
density is constant in theta, and the angular rule is exact at one node; only
a non-diagonal xi or sigma uses QuadratureSpec.angular nodes.  Both charts
share one grid per call.  With U = sigma T,
U' = dU/dw = sigma diag(p) T and U'' = sigma diag(p^2) T for T_i = z^{p_i},
the Pluecker identities for associated curves give both densities against
du dtheta in closed form:

  htilde := h |z|^2 = |U ^ U'|^2 / |U|^4,
  dd-bar log htilde = |U|^2 |U ^ U' ^ U''|^2 / |U ^ U'|^4 - 2 htilde,

so omega = htilde / pi and c_1 = -(1/pi) dd-bar log htilde (Laplacian =
4 dd-bar).  Wedge norms are sums of squared minors, a cancellation-free form
that stays accurate through severe torus degenerations.  Grid points are
evaluated in fixed blocks and summed in fixed order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.linalg import expm

from .asymptotics import fit_log_slope
from .catalog import VarietyInstance
from .errors import KEnergyError


@dataclass(frozen=True)
class CurveChart:
    """Monomial chart T_i(z) = z^{powers[i]} of a rational curve."""

    powers: tuple
    name: str

    def __post_init__(self):
        if 0 not in self.powers:
            raise KEnergyError("chart needs a nonvanishing section at z = 0")

    def sections(self, z):
        z = np.asarray(z, dtype=complex)
        k = np.asarray(self.powers, dtype=float)[:, None]
        return z[None, :] ** k


def curve_charts(instance: VarietyInstance):
    """The affine chart and the chart at infinity of a catalog curve."""
    if instance.n != 1:
        raise KEnergyError("numeric cross-checks cover curves (n = 1) only")
    powers = tuple(e[0] for e in instance.parametrization)
    top = max(powers)
    return (
        CurveChart(powers=powers, name="affine"),
        CurveChart(powers=tuple(top - e for e in powers), name="infinity"),
    )


@dataclass(frozen=True)
class QuadratureSpec:
    """Node counts and the radial cutoff for the curve quadrature.

    angular is used only when xi or sigma is not diagonal: a diagonal metric
    is invariant under z -> e^{i alpha} z, so one angular node is exact.
    """

    radial: int = 160
    angular: int = 64
    path_nodes: int = 24
    u_min: float = -25.0

    def __post_init__(self):
        if self.radial < 8 or self.angular < 8 or self.path_nodes < 8:
            raise KEnergyError("node counts must be at least 8")


# ---------------------------------------------------------------------------
# Pointwise metric quantities
# ---------------------------------------------------------------------------


def _sigma_matrix(sigma):
    if hasattr(sigma, "matrix"):
        return sigma.matrix
    return np.asarray(sigma, dtype=complex)


def metric_density_log(chart: CurveChart, S, u, theta):
    """log( h(z) |z|^2 ) at z = exp(u + i theta), the du dtheta density of
    omega up to 1/pi."""
    return np.log(_plucker_fields(S, chart.powers, chart.sections(np.exp(u + 1j * theta)))[2])


# ---------------------------------------------------------------------------
# Surface quadrature
# ---------------------------------------------------------------------------


def _log_polar_grid(u_min, radial, angular):
    """(z, weights) at the nodes z = exp(u + i theta) of one chart."""
    xu, wu = leggauss(radial)
    u = 0.5 * (xu + 1.0) * (0.0 - u_min) + u_min
    wu = wu * 0.5 * (0.0 - u_min)
    theta = np.arange(angular) * (2.0 * math.pi / angular)
    wtheta = np.full(angular, 2.0 * math.pi / angular)
    uu, tt = np.meshgrid(u, theta, indexing="ij")
    ww = np.outer(wu, wtheta)
    return np.exp(uu.ravel() + 1j * tt.ravel()), ww.ravel()


def _angular_nodes(spec, S):
    """1 when S is diagonal, spec.angular otherwise.

    A diagonal S gives |S T(z)|^2 = sum |S_ii|^2 |z|^(2 p_i), a function of |z|
    alone, so every density is constant in theta and one node is exact.
    """
    return 1 if np.count_nonzero(S - np.diag(np.diagonal(S))) == 0 else spec.angular


_BLOCK = 4096  # grid points per evaluation, so the temporaries stay small


def _chart_blocks(chart, grid):
    """[(T, weights)] on the log-polar grid, in blocks of _BLOCK points."""
    z, w = grid
    T = chart.sections(z)
    return [(T[:, s:s + _BLOCK], w[s:s + _BLOCK]) for s in range(0, w.size, _BLOCK)]


def _plucker_fields(S, powers, T, gradient=False):
    """(U, |U|^2, htilde, dd-bar log htilde, d_w log htilde) at U = S T.

    Derivatives are in w = log z: U' = S diag(p) T and U'' = S diag(p^2) T.
    d_w log htilde = <U ^ U'', U ^ U'> / |U ^ U'|^2 - 2 <U', U> / |U|^2 is
    computed only when gradient is set (it is None otherwise).
    """
    p = np.asarray(powers, dtype=float)
    U, U1, U2 = np.split(np.vstack([S, S * p, S * (p * p)]) @ T, 3)
    nU = (U.real**2 + U.imag**2).sum(axis=0)
    wedge2 = wedge3 = d_wedge2 = 0.0
    minors12 = {}
    for i, j in combinations(range(len(p)), 2):
        a = U[i] * U1[j] - U[j] * U1[i]
        wedge2 = wedge2 + (a.real**2 + a.imag**2)
        if gradient:
            d_wedge2 = d_wedge2 + (U[i] * U2[j] - U[j] * U2[i]) * a.conj()
        minors12[i, j] = U1[i] * U2[j] - U1[j] * U2[i]
    for i, j, k in combinations(range(len(p)), 3):
        c = U[i] * minors12[j, k] - U[j] * minors12[i, k] + U[k] * minors12[i, j]
        wedge3 = wedge3 + (c.real**2 + c.imag**2)
    h = wedge2 / nU**2
    ddbar = nU * wedge3 / wedge2**2 - 2.0 * h
    d_log = None
    if gradient:
        d_log = d_wedge2 / wedge2 - 2.0 * np.einsum("im,im->m", U1, U.conj()) / nU
    return U, nU, h, ddbar, d_log


# Largest eigenvalue spread of xi at which the densities can stay finite.  At
# the radial cutoff u_min = -(spread + 25) of the default spec the identity's
# |U ^ U'|^2 ~ e^{2 u_min} squares to 0 beyond a spread of 161.1, so the c_1
# density is 0/0 there on every curve, along every direction.  Some directions
# fail sooner (at 96.8 along (2, -1, -1) on the conic, 80.7 along
# (1, 1, -1, -1) on RNC(3)); those integrals end as a non-finite result.
_MAX_SPREAD = 161.0


def _auto_u_min(spec: QuadratureSpec, xi):
    eig = np.linalg.eigvals(np.asarray(xi, dtype=complex))
    spread = float(np.max(eig.real) - np.min(eig.real))
    if spread > _MAX_SPREAD:
        raise KEnergyError(
            f"path generator eigenvalue spread {spread:.6g} exceeds {_MAX_SPREAD:g}, "
            "beyond which the quadrature densities are not finite")
    return min(spec.u_min, -(spread + 25.0))


def _auto_radial(spec: QuadratureSpec, u_min):
    return max(spec.radial, int(8 * abs(u_min)))


def _require_finite(M, what):
    if not np.all(np.isfinite(M)):
        raise KEnergyError(f"{what} has a non-finite entry")


def volume_and_chern(instance, sigma=None, spec=QuadratureSpec()):
    """(integral omega, integral c_1) over the curve for the metric of sigma."""
    S = np.eye(instance.N + 1, dtype=complex) if sigma is None else _sigma_matrix(sigma)
    _require_finite(S, "sigma")
    grid = _log_polar_grid(spec.u_min, _auto_radial(spec, spec.u_min), _angular_nodes(spec, S))
    vol = 0.0
    chern = 0.0
    for chart in curve_charts(instance):
        for T, w in _chart_blocks(chart, grid):
            _, _, h, ddbar, _ = _plucker_fields(S, chart.powers, T)
            vol += float(np.sum(w * h)) / math.pi
            chern -= float(np.sum(w * ddbar)) / math.pi
    return vol, chern


@dataclass(frozen=True)
class MuReport:
    volume: float
    chern_number: float
    mu1: float


def mu_quadrature(instance, spec=QuadratureSpec()) -> MuReport:
    """mu_1 = (integral c_1) / V for the restricted ambient metric."""
    vol, chern = volume_and_chern(instance, None, spec)
    return MuReport(volume=vol, chern_number=chern, mu1=chern / vol)


def gauss_bonnet(instance, sigma, spec=QuadratureSpec()) -> float:
    """integral of c_1(omega_sigma), which is 2 for every rational curve."""
    _, chern = volume_and_chern(instance, sigma, spec)
    return chern


def energy_quadrature(instance, xi, spec=QuadratureSpec(), path="exponential"):
    """The defining energy integral for k = 1 on a curve, fully normalized.

    xi is a traceless (N+1) x (N+1) matrix.  path selects the potential path
    from 0 to phi_sigma (sigma = e^xi): "exponential" uses
    phi_t = log(|e^{xi t}T|^2/|T|^2), "affine" the linear interpolation of the
    endpoint potential (metric densities blend pointwise).  The value is path
    independent up to quadrature error.
    """
    if path not in ("exponential", "affine"):
        raise KEnergyError(f"unknown potential path '{path}'")
    xi = np.asarray(xi, dtype=complex)
    size = instance.N + 1
    if xi.shape != (size, size):
        raise KEnergyError(f"path generator must be {size}x{size}, got shape {xi.shape}")
    _require_finite(xi, "path generator")
    if abs(np.trace(xi)) > 1e-9:
        raise KEnergyError("path generator must be traceless")
    u_min = _auto_u_min(spec, xi)
    grid = _log_polar_grid(u_min, _auto_radial(spec, u_min), _angular_nodes(spec, xi))
    xt, wt = leggauss(spec.path_nodes)
    taus = 0.5 * (xt + 1.0)
    wtaus = 0.5 * wt

    mu1 = float(instance.data.mu[1])
    vol = float(instance.data.d)
    herm = xi + xi.conj().T
    if path == "affine":
        ends = (np.eye(size), expm(xi))
    else:
        steps = [(wtau, expm(xi * tau)) for tau, wtau in zip(taus, wtaus)]
    total = 0.0
    for chart in curve_charts(instance):
        blocks = _chart_blocks(chart, grid)
        if path == "affine":
            # h_tau = (1 - tau) htilde_0 + tau htilde_1 with D = dd-bar and
            # d = d_w: D log h_tau = D h_tau / h_tau - |d h_tau|^2 / h_tau^2,
            # where D htilde = htilde (D log htilde + |d log htilde|^2).
            for T, w in blocks:
                (_, nT, h0, L0, g0), (_, n1, h1, L1, g1) = (
                    _plucker_fields(S, chart.powers, T, gradient=True) for S in ends)
                phidot = np.log(n1 / nT)  # d/dt of t*phi_1
                D0, D1 = h0 * (L0 + np.abs(g0) ** 2), h1 * (L1 + np.abs(g1) ** 2)
                d0, d1 = h0 * g0, h1 * g1
                for tau, wtau in zip(taus, wtaus):
                    h = (1 - tau) * h0 + tau * h1
                    dh = (1 - tau) * d0 + tau * d1
                    ddbar = ((1 - tau) * D0 + tau * D1) / h - (dh.real**2 + dh.imag**2) / h**2
                    total -= wtau * float(np.sum(w * phidot * (ddbar + mu1 * h))) / math.pi
            continue
        for wtau, S in steps:
            for T, w in blocks:
                U, nU, h, ddbar, _ = _plucker_fields(S, chart.powers, T)
                phidot = np.einsum("im,im->m", herm @ U, U.conj()).real / nU
                total -= wtau * float(np.sum(w * phidot * (ddbar + mu1 * h))) / math.pi
    n, k = 1, 1
    return -(n + 1) * (n - k + 1) * vol * total


@dataclass(frozen=True)
class NumericSlopeReport:
    weights: tuple
    samples: tuple
    energies: tuple
    fit_slope: float
    algebraic_slope: int


def numeric_slope(instance, weights, samples, spec=QuadratureSpec(), algebraic=None):
    """Fit the quadrature energy along diag(t^a) against log|t|^2."""
    samples = tuple(float(t) for t in samples)
    diag = np.diag(np.array(weights, dtype=float))
    slope, _, energies = fit_log_slope(
        samples, lambda t: energy_quadrature(instance, diag * math.log(t), spec))
    return NumericSlopeReport(
        weights=tuple(int(w) for w in weights),
        samples=samples,
        energies=energies,
        fit_slope=slope,
        algebraic_slope=algebraic,
    )
