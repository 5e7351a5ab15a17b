"""Command-line entry point.

Every subcommand echoes its resolved configuration and prints canonical JSON
(sorted keys, floats at 12 significant digits), so identical inputs produce
byte-identical output.  Exit codes: 0 success, 1 domain error (machine
readable error object on stdout), 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

import numpy as np

from . import asymptotics as asym
from . import catalog as cat
from . import chern
from . import energy as energy_mod
from . import invariants as inv
from .errors import KEnergyError
from .exactpoly import MatrixPoly
from .pairing import (
    GroupElement,
    OneParamSubgroup,
    fs_norm_sq,
    min_weight,
)


def _canonical(obj):
    if isinstance(obj, dict):
        return {k: _canonical(obj[k]) for k in sorted(obj)}
    if isinstance(obj, (list, tuple)):
        return [_canonical(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_canonical(v) for v in obj.tolist()]
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, (bool, int, str)) or obj is None:
        return obj
    if isinstance(obj, (float, np.floating)):
        return float(f"{float(obj):.12g}")
    if isinstance(obj, complex):
        return {"re": float(f"{obj.real:.12g}"), "im": float(f"{obj.imag:.12g}")}
    return str(obj)


def emit(payload):
    try:
        text = json.dumps(_canonical(payload), sort_keys=True, allow_nan=False)
    except ValueError as exc:  # NaN or an infinity, which JSON cannot hold
        raise KEnergyError(f"the result is not finite: {exc}") from None
    print(text)


def _parse_list(text, convert, what):
    try:
        values = tuple(convert(v.strip()) for v in text.split(",") if v.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise KEnergyError(f"'{text}' is not a comma list of {what}: {exc!r}") from exc
    if not all(abs(v) < float("inf") for v in values):  # rejects nan and +-inf
        raise KEnergyError(f"'{text}' is not a comma list of finite {what}")
    return values


def _parse_samples(text):
    """Grid spec 'a:b:count' (geometric from a to b) or a comma list."""
    if ":" not in text:
        return _parse_list(text, float, "numbers")
    try:
        a, b, count = text.split(":")
        a, b, count = float(a), float(b), int(count)
    except ValueError as exc:
        raise KEnergyError(f"sample grid '{text}' is not a:b:count: {exc}") from exc
    if count < 2:
        raise KEnergyError("sample grid needs at least 2 points")
    if a <= 0 or b <= 0:
        raise KEnergyError("sample grid ends must be positive")
    ratio = (b / a) ** (1.0 / (count - 1))
    return tuple(a * ratio**i for i in range(count))


def _load_json(path, what):
    with open(path) as fh:
        try:
            return json.load(fh)
        except ValueError as exc:  # JSONDecodeError, or bytes that are not text
            raise KEnergyError(f"{what} file {path} is not JSON: {exc}") from exc


def _sigma_cell(cell):
    """A JSON number, or {"re": ..., "im": ...} with "im" optional.  Exact
    (Fraction) when both parts are strings or ints and the imaginary part is
    zero; complex, in the floating lane, otherwise."""
    if isinstance(cell, dict) and "re" in cell and set(cell) <= {"re", "im"}:
        parts, kinds = (cell["re"], cell.get("im", 0)), (int, float, str)
    else:
        parts, kinds = (cell, 0), (int, float)
    if any(isinstance(v, bool) or not isinstance(v, kinds) for v in parts):
        raise ValueError(f"cell {cell!r} is neither a number nor an object "
                         "with 're' and an optional 'im'")
    re, im = (Fraction(v) if isinstance(v, str) else v for v in parts)
    if not im and not isinstance(re, float) and not isinstance(im, float):
        return Fraction(re)
    return complex(re, im)


def _load_sigma(path, size=None):
    try:
        rows = [[_sigma_cell(cell) for cell in row] for row in _load_json(path, "sigma")]
    except (OverflowError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise KEnergyError(f"sigma file {path} is not a matrix of numbers: {exc!r}") from exc
    if size is not None and len(rows) != size:
        raise KEnergyError(f"sigma must be {size}x{size} for this instance")
    return GroupElement.from_matrix(rows)


def _load_poly(path):
    try:
        return MatrixPoly.from_json_dict(_load_json(path, "polynomial"))
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise KEnergyError(f"polynomial file {path} is malformed: {exc!r}") from exc


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_catalog(args):
    if args.action == "list":
        emit({"config": {"subcommand": "catalog", "action": "list"},
              "result": {"names": list(cat.CATALOG_NAMES)}})
        return 0
    instance = cat.build_instance(args.name)
    cat.save_instance(instance, args.out)
    degs = inv.degree_vector(instance.data, instance.n - instance.data.delta)
    emit(
        {
            "config": {"subcommand": "catalog", "action": "build", "name": args.name,
                       "out": args.out},
            "result": {
                "name": instance.name,
                "n": instance.n,
                "N": instance.N,
                "d": instance.data.d,
                "delta": instance.data.delta,
                "degrees": list(degs),
                "files": ["instance.json", "chow.json"]
                + [f"hyper_{i}.json" for i in sorted(instance.discriminants.hyper)],
            },
        }
    )
    return 0


def cmd_degrees(args):
    mu = _parse_list(args.mu, Fraction, "fractions")
    data = inv.VarietyData(n=args.n, N=args.N, d=args.deg, mu=mu, delta=args.delta)
    degree = inv.hyperdiscriminant_degree(data, args.k)
    fr = inv.format_range(data)
    degs = inv.degree_vector(data, args.k)
    round_trip = [
        str(inv.mu_from_degrees(degs[: i + 1], args.deg, args.n, i)) for i in range(args.k + 1)
    ]
    emit(
        {
            "config": {"subcommand": "degrees", "n": args.n, "N": args.N,
                       "deg": args.deg, "mu": [str(m) for m in mu],
                       "delta": args.delta, "k": args.k},
            "result": {
                "degree": degree,
                "formatRange": {"lo": fr.lo, "hi": fr.hi,
                                "admissible_k": list(fr.admissible_k)},
                "muRoundTrip": round_trip,
            },
        }
    )
    return 0


def cmd_derive_chern(args):
    derived = chern.derive_jet_top_chern(args.n, args.k)
    closed = chern.jet_top_chern_closed_form(args.n, args.k)
    coeffs = [{"i": key[0], "coefficient": str(c)} for key, c in sorted(derived.items())]
    emit(
        {
            "config": {"subcommand": "derive-chern", "n": args.n, "k": args.k},
            "result": {
                "coefficients": coeffs,
                "match": "PASS" if derived == closed else "FAIL",
            },
        }
    )
    return 0 if derived == closed else 1


def cmd_norm(args):
    poly = _load_poly(args.file)
    emit(
        {
            "config": {"subcommand": "norm", "file": args.file},
            "result": {"normSq": fs_norm_sq(poly), "terms": poly.num_terms(),
                       "degree": poly.total_degree()},
        }
    )
    return 0


def cmd_weight(args):
    poly = _load_poly(args.file)
    lam = OneParamSubgroup(_parse_list(args.lam, int, "integers"))
    emit(
        {
            "config": {"subcommand": "weight", "lambda": list(lam.weights),
                       "file": args.file},
            "result": {"minWeight": min_weight(lam, poly)},
        }
    )
    return 0


def cmd_energy(args):
    instance = cat.load_instance(args.instance)
    sigma = _load_sigma(args.sigma, size=instance.N + 1)
    value = energy_mod.energy_via_formula(instance, sigma, args.k)
    result = {"Mk": value.total, "k": args.k, "method": "formula"}
    if args.breakdown:
        lr = value.ratios
        result["terms"] = [
            {
                "i": i,
                "coefficient": a,
                "degChow": deg_chow,
                "degHyper": deg_hyper,
                "lrHyper": lr[i],
                "lrChow": lr[0],
                "contribution": a * (deg_chow * lr[i] - deg_hyper * lr[0]),
            }
            for i, a, deg_chow, deg_hyper in energy_mod.energy_terms(instance, args.k)
        ]
    identity_holds = True
    if args.cross_check:
        coefficients = energy_mod.energy_coefficients(instance, args.k)
        v, w = energy_mod.build_pair_vectors(instance, args.k)
        identity_holds = tuple(a - b for a, b in zip(v, w)) == coefficients
        result["coefficients"] = list(coefficients)
        result["pairIdentity"] = "PASS" if identity_holds else "FAIL"
    emit(
        {
            "config": {"subcommand": "energy", "instance": args.instance,
                       "k": args.k, "sigma": args.sigma,
                       "breakdown": bool(args.breakdown),
                       "crossCheck": bool(args.cross_check)},
            "result": result,
        }
    )
    return 0 if identity_holds else 1


def cmd_asymptotics(args):
    instance = cat.load_instance(args.instance)
    lam = OneParamSubgroup(_parse_list(args.lam, int, "integers"))
    if args.fit:
        report = asym.slope_fit(instance, args.k, lam, _parse_samples(args.fit))
        result = {
            "Ak": report.a_k,
            "fitSlope": report.fit_slope,
            "fitResidual": report.fit_residual,
            "boundedBelow": report.bounded_below,
            "rows": [{"t": t, "Mk": v} for t, v in zip(report.samples, report.values)],
        }
    else:
        result = {"Ak": asym.slope_integer(instance, args.k, lam)}
    emit(
        {
            "config": {"subcommand": "asymptotics", "instance": args.instance,
                       "k": args.k, "lambda": list(lam.weights),
                       "fit": args.fit},
            "result": result,
        }
    )
    return 0


def cmd_scan(args):
    instance = cat.load_instance(args.instance)
    report = asym.stability_scan(instance, args.k, args.bound)
    emit(
        {
            "config": {"subcommand": "scan", "instance": args.instance,
                       "k": args.k, "bound": args.bound},
            "result": {
                "maxSlope": report.max_slope,
                "worstLambda": list(report.worst.weights),
                "evaluated": report.n_evaluated,
                "destabilizerFound": report.destabilizer_found,
                "verdict": report.verdict,
            },
        }
    )
    return 0


def cmd_numeric(args):
    from . import numeric as num  # scipy, for expm: only this subcommand pays its import

    instance = cat.load_instance(args.instance)
    spec = num.QuadratureSpec()
    config = {"subcommand": "numeric", "instance": args.instance,
              "check": args.check, "xi": args.xi, "samples": args.samples}
    if args.check == "mu":
        report = num.mu_quadrature(instance, spec)
        result = {"mu1": report.mu1, "volume": report.volume,
                  "chernNumber": report.chern_number,
                  "mu1Exact": str(instance.data.mu[1])}
    elif args.check == "gauss-bonnet":
        if args.trials < 1:
            raise KEnergyError(f"--trials must be at least 1, got {args.trials}")
        rng = np.random.default_rng(args.seed)
        values = [
            num.gauss_bonnet(instance, energy_mod.random_sl(instance.N + 1, rng), spec)
            for _ in range(args.trials)
        ]
        result = {"chernNumbers": values, "expected": 2.0}
    elif args.check == "slope":
        weights = _parse_list(args.xi, int, "integers")
        samples = _parse_samples(args.samples)
        algebraic = asym.slope_integer(
            instance, 1, OneParamSubgroup(weights)
        )
        report = num.numeric_slope(instance, weights, samples, spec, algebraic)
        result = {
            "fitSlope": report.fit_slope,
            "algebraicSlope": report.algebraic_slope,
            "rows": [
                {"t": t, "Mk": v} for t, v in zip(report.samples, report.energies)
            ],
        }
    elif args.check == "path":
        weights = _parse_list(args.xi, float, "numbers")
        xi = np.diag(np.array(weights, dtype=complex))
        xi -= np.trace(xi) / len(weights) * np.eye(len(weights))
        via_exp = num.energy_quadrature(instance, xi, spec, path="exponential")
        via_affine = num.energy_quadrature(instance, xi, spec, path="affine")
        result = {"exponential": via_exp, "affine": via_affine,
                  "difference": abs(via_exp - via_affine)}
    else:
        raise KEnergyError(f"unknown numeric check '{args.check}'")
    emit({"config": config, "result": result})
    return 0


def cmd_minimize(args):
    instance = cat.load_instance(args.instance)
    rng = np.random.default_rng(args.seed)
    sigma0 = GroupElement.from_matrix(
        energy_mod.random_sl(instance.N + 1, rng), normalize=True
    )
    trace = energy_mod.minimize_energy(
        instance, args.k, sigma0, max_iters=args.iters, step=args.step
    )
    norms = trace.gradient_norms
    if len(norms) < len(trace.sigmas):  # the iteration cap ended the run
        basis = np.array(energy_mod.sl_basis(instance.N + 1))
        norms += (float(np.linalg.norm(
            energy_mod.sl_gradient(instance, trace.sigmas[-1], args.k, basis))),)
    emit(
        {
            "config": {"subcommand": "minimize", "instance": args.instance,
                       "k": args.k, "seed": args.seed, "iters": args.iters,
                       "step": args.step},
            "result": {
                "initialEnergy": trace.energies[0],
                "finalEnergy": trace.final_energy,
                "steps": len(trace.energies) - 1,
                "converged": trace.converged,
                "finalGradientNorm": norms[-1],
                "energies": list(trace.energies),
            },
        }
    )
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def build_parser():
    parser = argparse.ArgumentParser(
        prog="kenergy",
        description="Energy functionals of polarized varieties on Bergman metrics, "
        "computed through Chow forms and hyperdiscriminants, with numeric "
        "quadrature cross-checks on curves.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add(name, text, func):
        p = sub.add_parser(name, help=text, description=text)
        p.set_defaults(func=func)
        return p

    p = add(
        "catalog",
        "build a catalog variety instance directory "
        "(chow.json, hyper_i.json validated against the degree formula "
        "deg = d*sum (-1)^i (n-i+1) C(n-i,n-k) mu_i)",
        cmd_catalog,
    )
    p.add_argument("action", choices=("build", "list"))
    p.add_argument("name", nargs="?", default="")
    p.add_argument("--out", default="instance_out")

    p = add(
        "degrees",
        "hyperdiscriminant degree d*sum_{i<=k} (-1)^i (n-i+1) C(n-i,n-k) mu_i, "
        "the format existence range [delta, n], and the inverse recovery of mu",
        cmd_degrees,
    )
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--deg", type=int, required=True)
    p.add_argument("--mu", required=True, help="comma list, e.g. 1,2,2")
    p.add_argument("--delta", type=int, default=0)
    p.add_argument("--k", type=int, required=True)

    p = add(
        "derive-chern",
        "derive the top Chern class of the 1-jet bundle on X x CP^(n-k) by the "
        "bundle factorization chain and compare with the closed form "
        "sum (-1)^i (n-i+1) C(n-i,n-k) c_i w^(n-i) wFS^(n-k)",
        cmd_derive_chern,
    )
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)

    p = add(
        "norm",
        "factorial-weighted squared norm sum |c|^2/alpha! of a polynomial file",
        cmd_norm,
    )
    p.add_argument("file")

    p = add(
        "weight",
        "minimal monomial weight min <column degrees, lambda>, the slope of "
        "log|lambda(t) p|^2 against log|t|^2",
        cmd_weight,
    )
    p.add_argument("--lambda", dest="lam", required=True, help="comma list, sum zero")
    p.add_argument("file")

    p = add(
        "energy",
        "M_k(sigma) = sum (-1)^(i+1) C(n-i,n-k) [deg(R) LR(Delta^(n-i)) - "
        "deg(Delta^(n-i)) LR(R)] with LR the log norm ratio",
        cmd_energy,
    )
    p.add_argument("--instance", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--sigma", required=True, help="JSON matrix file")
    p.add_argument("--breakdown", action="store_true")
    p.add_argument("--cross-check", action="store_true",
                   help="also print the integer vector c with M_k = sum_i c_i LR(Delta_i) "
                   "and check that the exponents of (v_k, w_k) net to it")

    p = add(
        "asymptotics",
        "integer slope A_k(lambda) = w(v_k) - w(w_k) of M_k(lambda(t)) against "
        "log|t|^2, optionally with a least-squares fit",
        cmd_asymptotics,
    )
    p.add_argument("--instance", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--fit", default=None, help="sample grid a:b:count or comma list")

    p = add(
        "scan",
        "boundedness scan over the coordinate torus: max A_k over integer weight "
        "vectors with sum 0 and max|a_i| <= bound (M_k bounded below along lambda "
        "iff A_k <= 0)",
        cmd_scan,
    )
    p.add_argument("--instance", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--bound", type=int, required=True)

    p = add(
        "numeric",
        "quadrature cross-checks on curves: mu_1 = (int c_1)/V, Gauss-Bonnet "
        "int c_1 = 2, the energy integral -(n+1)(n-k+1)V int phidot [c_1 - mu_1 w] "
        "and its slope, and potential path independence",
        cmd_numeric,
    )
    p.add_argument("--instance", required=True)
    p.add_argument("--check", choices=("mu", "gauss-bonnet", "slope", "path"),
                   required=True)
    p.add_argument("--xi", default="2,-1,-1", help="weights for slope/path checks")
    p.add_argument("--samples", default="1e-1:1e-4:4")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--trials", type=int, default=3)

    p = add(
        "minimize",
        "gradient descent on M_k over SL(N+1,C) with Armijo backtracking; "
        "the gradient is analytic: one moment matrix per stored polynomial, "
        "k+1 substitutions per step",
        cmd_minimize,
    )
    p.add_argument("--instance", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--iters", type=int, default=50)
    p.add_argument("--step", type=float, default=0.5)

    return parser


# Options whose value is a comma list that may start with a minus sign.
_LIST_OPTIONS = ("--lambda", "--xi", "--mu")


def _attach_list_values(argv):
    """Rewrite '--lambda -1,2,-1' as '--lambda=-1,2,-1': argparse reads a
    token that starts with '-' and is not a plain number as an option."""
    out = []
    for token in argv:
        if out and out[-1] in _LIST_OPTIONS and token.startswith("-") and token[1:2].isdigit():
            out[-1] = f"{out[-1]}={token}"
        else:
            out.append(token)
    return out


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(_attach_list_values(sys.argv[1:] if argv is None else argv))
    try:
        return args.func(args)
    except KEnergyError as exc:
        print(json.dumps({"error": {"type": type(exc).__name__, "message": str(exc)}},
                         sort_keys=True))
        return 1
    except FileNotFoundError as exc:
        print(json.dumps({"error": {"type": "FileNotFoundError", "message": str(exc)}},
                         sort_keys=True))
        return 1


if __name__ == "__main__":
    sys.exit(main())
