"""Reach: every function a module defines is entered by some CLI subcommand."""

import inspect
import json
import sys

import kenergy.asymptotics
import kenergy.catalog
import kenergy.chern
import kenergy.energy
import kenergy.invariants
from kenergy.cli import main


def defined_code(module):
    """Code objects of the functions, methods and properties written in module."""
    fname = module.__file__
    out = {}
    for name, obj in vars(module).items():
        members = []
        if inspect.isfunction(obj) and obj.__module__ == module.__name__:
            members.append(obj)
        elif inspect.isclass(obj) and obj.__module__ == module.__name__:
            for attr in vars(obj).values():
                attr = attr.fget if isinstance(attr, property) else attr
                attr = attr.__func__ if isinstance(attr, (classmethod, staticmethod)) else attr
                if inspect.isfunction(attr):
                    members.append(attr)
        for fn in members:
            # dataclass-generated methods are compiled from strings, not from module
            if fn.__code__.co_filename == fname:
                out[fn.__qualname__] = fn.__code__
    return out


def entered_code(*argvs):
    """Code objects entered while cli.main runs each argv, via sys.setprofile."""
    seen = set()

    def profile(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        codes = [main(list(argv)) for argv in argvs]
    finally:
        sys.setprofile(previous)
    assert codes == [0] * len(argvs)
    return seen


def test_catalog_builds_reach_every_catalog_function(tmp_path, capsys):
    names = ("conic", "rational_normal_curve(3)", "quadric_surface",
             f"user({tmp_path / 'quadric_surface'})")
    seen = entered_code(*(("catalog", "build", name, "--out", str(tmp_path / name.split("(")[0]))
                          for name in names))
    capsys.readouterr()
    defined = defined_code(kenergy.catalog)
    assert "gram_det" in defined and "VarietyInstance.polynomial" in defined
    missed = sorted(name for name, code in defined.items() if code not in seen)
    assert not missed, f"catalog functions no catalog build enters: {missed}"


def test_scan_and_fit_reach_every_asymptotics_function(tmp_path, capsys):
    assert main(["catalog", "build", "conic", "--out", str(tmp_path)]) == 0
    seen = entered_code(
        ("scan", "--instance", str(tmp_path), "--k", "1", "--bound", "2"),
        ("asymptotics", "--instance", str(tmp_path), "--k", "1", "--lambda", "2,-1,-1"),
        ("asymptotics", "--instance", str(tmp_path), "--k", "1", "--lambda", "2,-1,-1",
         "--fit", "1e-1:1e-5:5"),
    )
    capsys.readouterr()
    defined = defined_code(kenergy.asymptotics)
    assert "stability_scan" in defined and "fit_log_slope" in defined
    missed = sorted(name for name, code in defined.items() if code not in seen)
    assert not missed, f"asymptotics functions neither scan nor a fit enters: {missed}"


def test_energy_and_minimize_reach_every_energy_function(tmp_path, capsys):
    assert main(["catalog", "build", "conic", "--out", str(tmp_path / "conic")]) == 0
    exact = tmp_path / "exact.json"
    exact.write_text(json.dumps([[{"re": v} for v in row] for row in
                                 (["2", "1/2", "0"], ["2", "1", "0"], ["0", "1/3", "1"])]))
    floating = tmp_path / "float.json"
    floating.write_text(json.dumps([[2.0, 0.5, 0.0], [2.0, 1.0, 0.0], [0.0, 0.25, 1.0]]))
    energy = ("energy", "--instance", str(tmp_path / "conic"), "--k", "1", "--breakdown",
              "--cross-check", "--sigma")
    seen = entered_code(
        (*energy, str(exact)),
        (*energy, str(floating)),
        ("minimize", "--instance", str(tmp_path / "conic"), "--k", "1", "--iters", "1"),
    )
    capsys.readouterr()
    defined = defined_code(kenergy.energy)
    assert "energy_terms" in defined and "MinimizeTrace.final_energy" in defined
    # only bench/ and the tests call directional_derivative; bench/spans.py wraps it
    exempt = {"directional_derivative"}
    missed = sorted(name for name, code in defined.items() if code not in seen and name not in exempt)
    assert not missed, f"energy functions neither energy nor minimize enters: {missed}"


def test_derive_chern_and_builds_reach_every_chern_function(tmp_path, capsys):
    seen = entered_code(
        ("derive-chern", "--n", "3", "--k", "2"),
        ("catalog", "build", "conic", "--out", str(tmp_path / "conic")),
        ("catalog", "build", "quadric_surface", "--out", str(tmp_path / "quadric")),
    )
    capsys.readouterr()
    defined = defined_code(kenergy.chern)
    assert "_times" in defined and "hypersurface_mu" in defined
    # the dict itself under its old name, read only by bench/tests/test_checks.py
    exempt = {"JetClass.coefficients"}
    missed = sorted(name for name, code in defined.items() if code not in seen and name not in exempt)
    assert not missed, f"chern functions neither derive-chern nor a build enters: {missed}"


def test_degrees_and_a_build_reach_every_invariants_function(tmp_path, capsys):
    seen = entered_code(
        ("degrees", "--n", "2", "--N", "3", "--deg", "2", "--mu", "1,2,2", "--k", "1"),
        ("catalog", "build", "conic", "--out", str(tmp_path / "conic")),
    )
    capsys.readouterr()
    defined = defined_code(kenergy.invariants)
    assert "mu_from_degrees" in defined and "VarietyData.__post_init__" in defined
    missed = sorted(name for name, code in defined.items() if code not in seen)
    assert not missed, f"invariants functions neither degrees nor a build enters: {missed}"
