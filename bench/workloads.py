"""The four workloads: seeded inputs, the timed operations and their checks.

A workload is built from a seed and a round count.  ``setup`` makes every
input (instances, group elements, instance directories); ``run`` performs the
timed operations, ``rounds`` times the same list; ``check`` makes the checks
that need more than one operation.  Operation results are checked after each
operation's clock has stopped.

The program is called through module attributes (``E.energy_via_formula``,
not a name imported once), so the traced run sees every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

import checks

# Inputs that fail today, made from a fixed seed so they are the same on
# every run whatever --seed is.
FAULT_SEED = 20150706
DET_FAULT = "absolute det tolerance"
NORM_FAULT = "norm not unitarily invariant"


@dataclass
class Op:
    """One timed call.  ``seconds`` is None when the call raised."""

    kind: str
    anchor: bool
    seconds: float | None
    failed: bool
    fault: str | None = None


def _rng(seed, *salt):
    return np.random.default_rng([seed, *salt])


def expm(a):
    """Matrix exponential of one matrix or a stack of them, by scaling and
    squaring of a Taylor series.

    Written here so that the benchmark loads no module the program might
    stop loading; accurate to a few ulps for the small matrices used here."""
    a = np.asarray(a, dtype=complex)
    norm = float(np.max(np.linalg.norm(a, 1, axis=(-2, -1))))
    squarings = max(0, int(math.ceil(math.log2(max(norm, 1e-300)))) + 1)
    b = a / 2.0 ** squarings
    term = np.broadcast_to(np.eye(a.shape[-1], dtype=complex), a.shape)
    out = term.copy()
    for j in range(1, 20):
        term = term @ b / j
        out = out + term
    for _ in range(squarings):
        out = out @ out
    return out


def _traceless(size, rng, scale, count=None):
    shape = (size, size) if count is None else (count, size, size)
    xi = scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    return xi - np.trace(xi, axis1=-2, axis2=-1)[..., None, None] / size * np.eye(size)


def random_sl(size, rng, scale=0.3, count=None):
    """exp of a random traceless complex matrix, rescaled onto det = 1
    (a stack of ``count`` of them when count is given)."""
    m = expm(_traceless(size, rng, scale, count))
    return m / (np.linalg.det(m) ** (1.0 / size))[..., None, None]


def haar_su(size, rng):
    """Haar-random unitary with its determinant divided out."""
    z = (rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))) / math.sqrt(2)
    q, r = np.linalg.qr(z)
    q = q * (np.diag(r) / np.abs(np.diag(r)))
    return q / np.linalg.det(q) ** (1.0 / size)


def sym_power(g, d):
    """Sym^d of g in SL(2): row i holds the coefficients in z of
    (g10 z + g11)^(d-i) (g00 z + g01)^i, so it maps T(z) = (1, z, ..., z^d)
    onto a multiple of T(g.z) and preserves the rational normal curve."""
    P = np.polynomial.polynomial
    out = np.zeros((d + 1, d + 1), dtype=complex)
    for i in range(d + 1):
        row = P.polymul(P.polypow([g[1, 1], g[1, 0]], d - i), P.polypow([g[0, 1], g[0, 0]], i))
        out[i, : len(row)] = row
    return out


def automorphisms(name, rng, count):
    """Seeded elements of SL(N+1) preserving X: Sym^d(g) for the curves,
    g1 (x) g2 for the quadric surface T(u, v) = (1, v) (x) (1, u)."""
    if name == "quadric_surface":
        g1, g2 = random_sl(2, rng, count=count), random_sl(2, rng, count=count)
        return np.einsum("bij,bkl->bikjl", g1, g2).reshape(count, 4, 4)
    degree = 2 if name == "conic" else int(name.split("(")[1].rstrip(")"))
    return np.array([sym_power(g, degree) for g in random_sl(2, rng, count=count)])


def large_det_one(size, rng, count, rho_for):
    """det-1 pairs (sigma, sigma rho) with entries in the hundreds that the
    absolute determinant tolerance rejects.

    Each matrix is exp of a traceless matrix at scale 3, rescaled onto det = 1;
    its determinant is 1 to a relative accuracy near 1e-16 of its Hadamard bound.
    A pair is kept when both floating determinants miss 1 by more than ten
    times the absolute tolerance, so no run, on any seed, accepts one, and
    no entry exceeds 1e3.  Candidates are drawn 64 at a time."""
    out = []
    while len(out) < count:
        sigmas = random_sl(size, rng, 3.0, count=64)
        moved = sigmas @ rho_for(rng, 64)
        keep = np.ones(64, dtype=bool)
        for m in (sigmas, moved):
            keep &= np.abs(np.linalg.det(m) - 1) > 1e-11
            keep &= np.max(np.abs(m), axis=(1, 2)) < 1e3
        out.extend(zip(sigmas[keep], moved[keep]))
    return out[:count]


def poly_terms(poly):
    """Term list of a program polynomial, through its JSON form."""
    return checks.parse_terms(poly.to_json_dict())


def instance_polys(instance, k):
    return [poly_terms(instance.polynomial(i)) for i in range(k + 1)]


def seeded_lambda(size, rng):
    while True:
        lam = rng.integers(-3, 4, size=size)
        lam[-1] -= lam.sum()
        if np.any(lam) and abs(lam[-1]) <= 6:
            return tuple(int(v) for v in lam)


def interleave(*lists):
    """Merge lists so that each one's items are spread evenly over the result
    (item j of n sits at fraction (j + 1/2) / n).  The host's speed drifts
    over seconds to minutes; spreading every kind of operation over the
    whole run keeps a median from sampling one slow or fast stretch."""
    keyed = [((j + 0.5) / len(items), which, j, item)
             for which, items in enumerate(lists) for j, item in enumerate(items)]
    return [item for *_, item in sorted(keyed, key=lambda key: key[:3])]


class Workload:
    """Common timing loop; subclasses set ``nominal_round_s`` and list their
    operations in ``setup`` and ``run_round``."""

    def __init__(self, seed, rounds):
        self.seed = seed
        self.rounds = rounds
        self.failures = []  # messages of failed workload-level checks

    def time_op(self, kind, call, judge, anchor=False, fault=None):
        """Time ``call``; ``judge(result)`` says whether its answer is right."""
        start = time.perf_counter()
        try:
            result = call()
        except Exception as exc:  # counted as a failed operation
            self.ops.append(Op(kind, anchor, None, True, fault))
            if fault is None:
                self.failures.append(f"{kind}: raised {type(exc).__name__}: {exc}")
            return None
        seconds = time.perf_counter() - start
        ok = judge(result)
        self.ops.append(Op(kind, anchor, seconds, not ok, fault))
        if not ok and fault is None:
            self.failures.append(f"{kind}: wrong answer {result!r}")
        return result

    def run(self):
        self.ops = []
        for r in range(self.rounds):
            self.run_round(r)
        return self.ops


# ---------------------------------------------------------------------------
# energy-eval
# ---------------------------------------------------------------------------


class EnergyEval(Workload):
    """Energies at fresh seeded float sigma, each wrapped by from_matrix.

    Per round and instance: M_k at the identity; ``units`` seeded sigma, each
    evaluated at sigma and at sigma rho for a seeded automorphism rho; ``large``
    fixed det-1 pairs with entries in the hundreds (kept fault: the absolute det
    tolerance rejects them); ``probes`` fixed Haar unitaries (kept fault: the
    1/alpha! norm is not unitarily invariant, so M_k(U) != 0).  Counts are set
    so that each instance takes a comparable share of the round."""

    nominal_round_s = 10.0
    # name, k values (M_2 first on the quadric: it computes every ratio that
    # M_1 reuses), units, large, probes per round
    PLAN = (
        ("conic", (1,), 400, 40, 4),
        ("rational_normal_curve(3)", (1,), 30, 3, 1),
        ("quadric_surface", (2, 1), 10, 1, 1),
        ("rational_normal_curve(4)", (1,), 1, 0, 0),
    )
    SLOPE_SAMPLES = tuple(10.0 ** -j for j in range(2, 9))

    def setup(self, K):
        self.E, self.P = K.E, K.P
        self.instances = {name: K.C.build_instance(name) for name, *_ in self.PLAN}
        fault_rng = np.random.default_rng(FAULT_SEED)
        self.inputs = []
        for index, (name, ks, units, large, probes) in enumerate(self.PLAN):
            size = self.instances[name].N + 1
            rng = _rng(self.seed, 1, index)
            per_round = []
            for _ in range(self.rounds):
                sigmas = random_sl(size, rng, count=units)
                seeded = list(zip(sigmas, sigmas @ automorphisms(name, rng, units)))
                per_round.append({
                    "units": seeded,
                    "large": large_det_one(size, fault_rng, large,
                                           lambda g, n: automorphisms(name, g, n)),
                    "probes": [haar_su(size, fault_rng) for _ in range(probes)],
                })
            self.inputs.append(per_round)
        self.lambdas = {
            name: [seeded_lambda(self.instances[name].N + 1, _rng(self.seed, 2, i, j))
                   for j in range(2)]
            for i, (name, *_) in enumerate(self.PLAN)
        }

    def _energy(self, instance, matrix, k):
        sigma = self.P.GroupElement.from_matrix(matrix)
        return self.E.energy_via_formula(instance, sigma, k).total

    def run_round(self, r):
        tasks = []
        for index, (name, ks, *_) in enumerate(self.PLAN):
            inputs = self.inputs[index][r]
            identity = np.eye(self.instances[name].N + 1, dtype=complex)
            tasks.append(interleave(
                [(name, ks, "identity", identity, None)],
                [(name, ks, "pair", pair, None) for pair in inputs["units"]],
                [(name, ks, "pair", pair, DET_FAULT) for pair in inputs["large"]],
                [(name, ks, "probe", u, NORM_FAULT) for u in inputs["probes"]]))
        for task in interleave(*tasks):
            self._task(*task)

    def _task(self, name, ks, what, payload, fault):
        instance = self.instances[name]

        def op(matrix, k, judge):
            anchor = name == "quadric_surface" and k == 2 and what == "pair" and fault is None
            return self.time_op(f"{name} M_{k}", lambda: self._energy(instance, matrix, k),
                                judge, anchor=anchor, fault=fault)

        for k in ks:
            if what == "identity":
                op(payload, k, checks.identity_is_zero)
            elif what == "probe":
                op(payload, k, checks.unitary_is_zero)
        if what == "pair":
            sigma, moved = payload
            for k in ks:
                base = op(sigma, k, lambda v: math.isfinite(v))
                op(moved, k, lambda v: base is not None and checks.invariant(base, v))

    def check(self, K):
        """Fitted slopes along seeded one-parameter subgroups against A_k
        from minimal weights computed here."""
        for name, ks, *_ in self.PLAN:
            instance = self.instances[name]
            polys = instance_polys(instance, max(ks))
            for lam in self.lambdas[name]:
                for k in ks:
                    report = K.A.slope_fit(instance, k, self.P.OneParamSubgroup(lam),
                                         self.SLOPE_SAMPLES)
                    want = int(checks.slopes(polys, instance.n, k, [lam])[0])
                    if report.a_k != want or not checks.slope_within(report.fit_slope, want):
                        self.failures.append(
                            f"{name} k={k} lambda={lam}: A_k {report.a_k} (want {want}), "
                            f"fit {report.fit_slope}")


# ---------------------------------------------------------------------------
# descent
# ---------------------------------------------------------------------------


class Descent(Workload):
    """Descent iterations from seeded starts.  One operation is one call of
    minimize_energy capped at one iteration, continued from the previous
    call's final sigma: a gradient over the sl basis plus the line search."""

    nominal_round_s = 13.0
    PLAN = (
        ("quadric_surface", 2, 2),
        ("rational_normal_curve(3)", 1, 2),
        ("conic", 1, 10),
    )
    FD_STEP = 1e-5

    def setup(self, K):
        self.E, self.P = K.E, K.P
        self.instances = {name: K.C.build_instance(name) for name, *_ in self.PLAN}
        self.starts = []
        for r in range(self.rounds):
            for index, (name, k, iters) in enumerate(self.PLAN):
                rng = _rng(self.seed, 3, index, r)
                size = self.instances[name].N + 1
                sigma0 = K.P.GroupElement.from_matrix(random_sl(size, rng, 0.5), normalize=True)
                self.starts.append((name, k, iters, sigma0, _traceless(size, rng, 0.8)))

    def run_round(self, r):
        per_round = len(self.PLAN)
        chains = {}
        steps = []
        for name, k, iters, sigma0, _ in self.starts[r * per_round:(r + 1) * per_round]:
            chains[name] = sigma0
            steps.append([(name, k)] * iters)
        for name, k in interleave(*steps):
            instance, sigma = self.instances[name], chains[name]
            if sigma is None:
                continue  # an earlier iteration of this chain raised
            trace = self.time_op(
                f"{name} k={k} iteration",
                lambda: self.E.minimize_energy(instance, k, sigma, max_iters=1),
                lambda t: checks.nonincreasing(t.energies[0], t.energies[-1]),
                anchor=name == "quadric_surface")
            chains[name] = None if trace is None else trace.sigmas[-1]

    def check(self, K):
        """At each start, the analytic derivative along a seeded direction
        against central differences of energy_via_formula."""
        h = self.FD_STEP
        G = self.P.GroupElement
        for name, k, _, sigma0, xi in self.starts:
            instance = self.instances[name]
            analytic = self.E.directional_derivative(instance, sigma0, k, xi)
            plus = self.E.energy_via_formula(
                instance, G.from_matrix(sigma0.matrix @ expm(h * xi), normalize=True), k).total
            minus = self.E.energy_via_formula(
                instance, G.from_matrix(sigma0.matrix @ expm(-h * xi), normalize=True), k).total
            fd = (plus - minus) / (2 * h)
            if not checks.derivative_matches(analytic, fd):
                self.failures.append(f"{name} k={k}: derivative {analytic} vs differences {fd}")


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------


class Quadrature(Workload):
    """Curve quadrature at the default QuadratureSpec (what `kenergy numeric`
    uses): energy integrals at t = 1e-1 ... 1e-4 along two seeded diagonal xi
    on the conic and one on RNC(3), the exponential and affine paths at a
    seeded non-diagonal Hermitian xi (eigenvalues 1/2, 0, -1/2) on the conic,
    and volume and c_1 on both curves at a seeded positive det-1 sigma with
    fixed eigenvalues exp(1/2) ... exp(-1/2) (only sigma* sigma enters the
    metric).  The eight conic integrals are the anchor.

    The diagonal weights are drawn from lists of equal eigenvalue spread, so
    the node count, and with it the cost, does not depend on the seed.  On
    RNC(3) the list leaves out +-(1, 1, -1, -1): over this sample range the
    integrals along it fit -3.86 against A_1 = -4, the energy still bending
    at t = 1e-1.  The orders of (2, -1, -1, 0) are left out because some fail
    the same way (-7.59 against -8 along (2, 0, -1, -1))."""

    nominal_round_s = 30.0
    # curve, weight choices, directions drawn per round
    CURVES = (
        ("conic", ((2, -1, -1), (-1, 2, -1), (-1, -1, 2)), 2),
        ("rational_normal_curve(3)", ((1, -1, -1, 1), (-1, 1, -1, 1), (1, -1, 1, -1),
                                      (-1, 1, 1, -1)), 1),
    )
    SAMPLES = (1e-1, 1e-2, 1e-3, 1e-4)

    def setup(self, K):
        self.N = K.N
        self.spec = K.N.QuadratureSpec()
        self.instances = {name: K.C.build_instance(name) for name, *_ in self.CURVES}
        self.plans = []
        for r in range(self.rounds):
            rng = _rng(self.seed, 4, r)
            directions = [(name, choices[int(j)])
                          for name, choices, count in self.CURVES
                          for j in rng.choice(len(choices), count, replace=False)]
            # A Hermitian xi with fixed eigenvalues: the node count does not
            # move with the seed, and the default nodes resolve both paths.
            u = haar_su(3, rng)
            xi = u @ np.diag([0.5, 0.0, -0.5]) @ u.conj().T
            sigmas = {}
            for name, *_ in self.CURVES:
                size = self.instances[name].N + 1
                u = haar_su(size, rng)
                sigmas[name] = u @ np.diag(np.exp(np.linspace(0.5, -0.5, size))) @ u.conj().T
            self.plans.append((directions, xi, sigmas))
        self.values = {}

    def run_round(self, r):
        directions, xi, sigmas = self.plans[r]
        integrals = [[(direction, t) for t in self.SAMPLES] for direction in directions]
        tasks = interleave(*integrals, [("paths", None)],
                           [("volume", name) for name, *_ in self.CURVES])
        for what, arg in tasks:
            if what == "paths":
                self._paths(xi)
            elif what == "volume":
                instance = self.instances[arg]
                self.time_op(
                    f"{arg} volume and c_1",
                    lambda: self.N.volume_and_chern(instance, sigmas[arg], self.spec),
                    lambda vc: checks.gauss_bonnet(vc[0], vc[1], instance.data.d))
            else:
                name, weights = what
                instance = self.instances[name]
                xi_t = np.diag(np.array(weights, dtype=float)) * math.log(arg)
                self.values.setdefault((r, what), []).append(self.time_op(
                    f"{name} diagonal integral",
                    lambda: self.N.energy_quadrature(instance, xi_t, self.spec),
                    math.isfinite, anchor=name == "conic"))

    def _paths(self, xi):
        conic = self.instances["conic"]
        exponential = self.time_op(
            "conic exponential path",
            lambda: self.N.energy_quadrature(conic, xi, self.spec, path="exponential"),
            math.isfinite)
        self.time_op(
            "conic affine path",
            lambda: self.N.energy_quadrature(conic, xi, self.spec, path="affine"),
            lambda v: exponential is not None and checks.paths_agree(exponential, v))

    def check(self, K):
        """Slopes of the integrals against A_1 from minimal weights made here."""
        for (r, (name, weights)), values in self.values.items():
            if None in values:
                continue  # already counted as failed operations
            instance = self.instances[name]
            want = int(checks.slopes(instance_polys(instance, 1), 1, 1, [weights])[0])
            fit = checks.fitted_slope(self.SAMPLES, values)
            if not checks.slope_within(fit, want):
                self.failures.append(f"{name} xi={weights}: slope {fit} vs A_1 {want}")


# ---------------------------------------------------------------------------
# cli-exact
# ---------------------------------------------------------------------------


class CliExact(Workload):
    """A fixed list of `kenergy` processes, one at a time, per round:
    catalog build of RNC(5) and the quadric, scans on the quadric (k=2) and
    RNC(4) (k=1), an asymptotics fit, derive-chern, norm, and an energy
    --cross-check at an exact rational det-1 sigma.  With ``in_process`` the
    same argument lists go to kenergy.cli.main in this process."""

    nominal_round_s = 10.0
    FIT = "1e-2:1e-8:7"

    def __init__(self, seed, rounds, workdir, in_process=False):
        super().__init__(seed, rounds)
        self.workdir = workdir
        self.in_process = in_process

    def setup(self, K):
        C = K.C
        self.C, self.E, self.P, self.cli = C, K.E, K.P, K.cli
        os.makedirs(self.workdir, exist_ok=True)
        shared = os.path.join(self.workdir, "rnc4")
        C.save_instance(C.build_instance("rational_normal_curve(4)"), shared)
        self.rnc4 = shared
        self.plans = []
        for r in range(self.rounds):
            rng = _rng(self.seed, 5, r)
            out = os.path.join(self.workdir, f"round{r}")
            os.makedirs(out, exist_ok=True)
            sigma = _exact_sl(4, rng)
            sigma_path = os.path.join(out, "sigma.json")
            with open(sigma_path, "w") as fh:
                json.dump([[{"re": str(v), "im": "0"} for v in row] for row in sigma], fh)
            n = int(rng.integers(1, 5))
            self.plans.append({
                "out": out,
                "sigma": sigma,
                "sigma_path": sigma_path,
                "lambda": seeded_lambda(4, rng),
                "chern": (n, int(rng.integers(1, n + 1))),
                "z": [Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 5)))
                      for _ in range(2)],
                "uv": [(Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 5))),
                        Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 5))))
                       for _ in range(2)],
                "frame_rng": _rng(self.seed, 6, r),
            })
        self.env = dict(os.environ)

    def _commands(self, plan):
        out = plan["out"]
        rnc5 = os.path.join(out, "rnc5")
        quad = os.path.join(out, "quad")
        lam = ",".join(str(v) for v in plan["lambda"])
        n, k = plan["chern"]
        return [
            (["catalog", "build", "rational_normal_curve(5)", "--out", rnc5],
             lambda res: self._chow_ok(plan, rnc5, [(1,) + tuple(z ** p for p in range(1, 6))
                                                    for z in plan["z"]], 2, 10)),
            (["catalog", "build", "quadric_surface", "--out", quad],
             lambda res: self._chow_ok(plan, quad, [(1, u, v, u * v) for u, v in plan["uv"]],
                                       3, 6)),
            (["scan", "--instance", quad, "--k", "2", "--bound", "4"],
             lambda res: self._scan_ok(res, quad, 2, 4)),
            (["scan", "--instance", self.rnc4, "--k", "1", "--bound", "3"],
             lambda res: self._scan_ok(res, self.rnc4, 1, 3)),
            (["asymptotics", "--instance", quad, "--k", "2", f"--lambda={lam}", "--fit", self.FIT],
             lambda res: self._fit_ok(res, quad, 2, plan["lambda"])),
            (["derive-chern", "--n", str(n), "--k", str(k)],
             lambda res: self._chern_ok(res, n, k)),
            (["norm", os.path.join(rnc5, "chow.json")],
             lambda res: self._norm_ok(res, os.path.join(rnc5, "chow.json"))),
            (["energy", "--instance", quad, "--k", "2", "--sigma", plan["sigma_path"],
              "--cross-check"],
             lambda res: self._lanes_ok(res, quad, 2, plan["sigma"])),
        ]

    def _invoke(self, argv):
        """(exit code, parsed result) of one kenergy run."""
        if self.in_process:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = self.cli.main(list(argv))
            text = buf.getvalue()
        else:
            proc = subprocess.run([sys.executable, "-m", "kenergy.cli", *argv],
                                  env=self.env, capture_output=True, text=True, timeout=120)
            code, text = proc.returncode, proc.stdout
        if code != 0:
            raise RuntimeError(f"exit {code}: {text.strip()[-300:]}")
        return json.loads(text)["result"]

    def run_round(self, r):
        plan = self.plans[r]
        for argv, judge in self._commands(plan):
            self.time_op(f"kenergy {argv[0]}", lambda: self._invoke(argv), judge, anchor=True)

    def check(self, K):
        pass  # every check here belongs to one process's output

    # -- checks on single outputs ---------------------------------------

    @staticmethod
    def _read(path):
        with open(path) as fh:
            return json.load(fh)

    def _instance_polys(self, directory, k):
        meta = self._read(os.path.join(directory, "instance.json"))
        files = ["chow.json"] + [f"hyper_{i}.json" for i in range(1, k + 1)]
        return meta, [checks.parse_terms(self._read(os.path.join(directory, f))) for f in files]

    def _chow_ok(self, plan, directory, points, rows, degree):
        terms = checks.parse_terms(self._read(os.path.join(directory, "chow.json")))
        return checks.chow_vanishes_on_x(terms, points, rows, degree, plan["frame_rng"])

    def _scan_ok(self, res, directory, k, bound):
        meta, polys = self._instance_polys(directory, k)
        best, count = checks.max_slope(polys, int(meta["n"]), k, bound)
        return res["maxSlope"] == best and res["evaluated"] == count

    def _fit_ok(self, res, directory, k, lam):
        meta, polys = self._instance_polys(directory, k)
        want = int(checks.slopes(polys, int(meta["n"]), k, [lam])[0])
        return res["Ak"] == want and checks.slope_within(res["fitSlope"], want)

    @staticmethod
    def _chern_ok(res, n, k):
        coefficients = {c["i"]: Fraction(c["coefficient"]) for c in res["coefficients"]}
        return res["match"] == "PASS" and coefficients == checks.jet_class_coefficients(n, k)

    def _norm_ok(self, res, path):
        terms = checks.parse_terms(self._read(path))
        want = checks.norm_sq(terms)
        return res["terms"] == len(terms) and abs(res["normSq"] - want) <= checks.NORM_RTOL * want

    def _lanes_ok(self, res, directory, k, sigma):
        instance = self.C.load_instance(directory)
        floating = self.P.GroupElement.from_matrix([[complex(v) for v in row] for row in sigma])
        return checks.lanes_agree(res["Mk"], self.E.energy_via_formula(instance, floating, k).total)


def _exact_sl(size, rng):
    """Product of four elementary shears with small rational entries (det 1)."""
    m = [[Fraction(int(i == j)) for j in range(size)] for i in range(size)]
    for _ in range(4):
        i, j = (int(v) for v in rng.choice(size, 2, replace=False))
        c = Fraction(int(rng.integers(-2, 3)), int(rng.integers(1, 4)))
        for row in m:
            row[j] += c * row[i]
    return m


WORKLOADS = {
    "energy-eval": EnergyEval,
    "descent": Descent,
    "quadrature": Quadrature,
    "cli-exact": CliExact,
}
