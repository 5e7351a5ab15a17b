"""Reach: every function a module defines is entered by some CLI subcommand."""

import inspect
import sys

import kenergy.asymptotics
import kenergy.catalog
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
        ("asymptotics", "--instance", str(tmp_path), "--k", "1", "--lambda", "2,-1,-1",
         "--fit", "1e-1:1e-5:5"),
    )
    capsys.readouterr()
    defined = defined_code(kenergy.asymptotics)
    assert "stability_scan" in defined and "fit_log_slope" in defined
    missed = sorted(name for name, code in defined.items() if code not in seen)
    assert not missed, f"asymptotics functions neither scan nor a fit enters: {missed}"
