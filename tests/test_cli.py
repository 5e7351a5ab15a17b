import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import expm

import kenergy.cli
from kenergy.catalog import (
    DiscriminantSet,
    VarietyInstance,
    load_instance,
    save_instance,
    validate_instance,
)
from kenergy.cli import build_parser, main
from kenergy.energy import energy_via_formula, minimize_energy, random_sl, sl_basis
from kenergy.exactpoly import MatrixPoly
from kenergy.pairing import GroupElement


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def identity_sigma_file(tmp_path, size):
    path = tmp_path / "id.json"
    rows = [
        [{"re": "1" if i == j else "0", "im": "0"} for j in range(size)]
        for i in range(size)
    ]
    path.write_text(json.dumps(rows))
    return str(path)


@pytest.fixture(scope="module")
def conic_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("instances")
    code = main(["catalog", "build", "conic", "--out", str(root / "conic")])
    assert code == 0
    return str(root / "conic")


@pytest.fixture(scope="module")
def destabilized_dir(tmp_path_factory, conic_dir):
    """The conic's numbers with Chow form x00^2 x11^2 and hyper_1 = x1^2, so
    A_1 = -2 w(x00^2 x11^2) + 4 w(x1^2) = 4 (a_1 - a_0) along (a_0, a_1, a_2)."""
    conic = load_instance(conic_dir)
    x = lambda rows, r, c: MatrixPoly.variable((rows, 3), r, c)  # noqa: E731
    instance = VarietyInstance(
        name="destabilized",
        data=conic.data,
        parametrization=conic.parametrization,
        discriminants=DiscriminantSet(chow=x(2, 0, 0) ** 2 * x(2, 1, 1) ** 2,
                                      hyper={1: x(1, 0, 1) ** 2}),
    )
    assert validate_instance(instance)
    out = tmp_path_factory.mktemp("destabilized") / "inst"
    save_instance(instance, str(out))
    return str(out)


@pytest.mark.parametrize("bound,slope,worst", [
    (1, 8, [-1, 1, 0]),
    (2, 16, [-2, 2, 0]),
    (3, 24, [-3, 3, 0]),
])
def test_scan_reports_a_destabilizer(capsys, destabilized_dir, bound, slope, worst):
    code, out = run_cli(capsys, "scan", "--instance", destabilized_dir, "--k", "1",
                        "--bound", str(bound))
    assert code == 0
    result = json.loads(out)["result"]
    assert result["maxSlope"] == slope
    assert result["worstLambda"] == worst
    assert result["destabilizerFound"] is True
    assert result["verdict"] == f"destabilizer found on the coordinate torus at bound {bound}"


def test_cli_import_leaves_scipy_unloaded():
    # scipy takes about 0.3 s to import; only `numeric` and the descent need it
    probe = "import sys, kenergy.cli; sys.exit('scipy' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", probe], timeout=60)  # inherits PYTHONPATH
    assert done.returncode == 0


def test_catalog_build_then_energy_identity(tmp_path, capsys, conic_dir):
    sigma = identity_sigma_file(tmp_path, 3)
    code, out = run_cli(capsys, "energy", "--instance", conic_dir, "--k", "1",
                        "--sigma", sigma)
    assert code == 0
    payload = json.loads(out)
    assert payload["result"]["Mk"] == 0.0


def test_energy_cross_check_flag(tmp_path, capsys, conic_dir):
    sigma = tmp_path / "sigma.json"
    sigma.write_text(json.dumps([
        [{"re": "2", "im": "0"}, {"re": "0", "im": "0"}, {"re": "0", "im": "0"}],
        [{"re": "0", "im": "0"}, {"re": "2", "im": "0"}, {"re": "0", "im": "0"}],
        [{"re": "0", "im": "0"}, {"re": "0", "im": "0"}, {"re": "1/4", "im": "0"}],
    ]))
    code, out = run_cli(capsys, "energy", "--instance", conic_dir, "--k", "1",
                        "--sigma", str(sigma), "--cross-check", "--breakdown")
    assert code == 0
    payload = json.loads(out)
    result = payload["result"]
    assert result["coefficients"] == [-2, 4]
    assert result["pairIdentity"] == "PASS"
    assert result["terms"][0]["degChow"] == 4


def test_energy_cross_check_fails_when_the_pair_does_not_net(tmp_path, capsys, conic_dir,
                                                             monkeypatch):
    import kenergy.energy as energy_mod

    monkeypatch.setattr(energy_mod, "build_pair_vectors", lambda instance, k: ((0, 5), (2, 0)))
    sigma = identity_sigma_file(tmp_path, 3)
    code, out = run_cli(capsys, "energy", "--instance", conic_dir, "--k", "1",
                        "--sigma", sigma, "--cross-check")
    assert code == 1
    assert json.loads(out)["result"]["pairIdentity"] == "FAIL"


def test_degrees_command(capsys):
    code, out = run_cli(capsys, "degrees", "--n", "2", "--N", "3", "--deg", "2",
                        "--mu", "1,2,2", "--k", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["result"]["degree"] == 4
    assert payload["result"]["formatRange"] == {"lo": 0, "hi": 2, "admissible_k": [1, 2]}
    assert payload["result"]["muRoundTrip"] == ["1", "2"]


def test_derive_chern_command(capsys):
    code, out = run_cli(capsys, "derive-chern", "--n", "3", "--k", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["result"]["match"] == "PASS"


def test_norm_and_weight_commands(capsys, conic_dir):
    code, out = run_cli(capsys, "norm", f"{conic_dir}/hyper_1.json")
    assert code == 0
    assert json.loads(out)["result"]["normSq"] == 16.5
    code, out = run_cli(capsys, "weight", "--lambda", "1,1,-2",
                        f"{conic_dir}/hyper_1.json")
    assert code == 0
    assert json.loads(out)["result"]["minWeight"] == -1


def test_asymptotics_command(capsys, conic_dir):
    code, out = run_cli(capsys, "asymptotics", "--instance", conic_dir, "--k", "1",
                        "--lambda", "2,-1,-1")
    assert code == 0
    assert json.loads(out)["result"]["Ak"] == -6


def test_list_values_may_start_with_a_minus_sign(capsys, conic_dir):
    code, out = run_cli(capsys, "asymptotics", "--instance", conic_dir, "--k", "1",
                        "--lambda", "-1,2,-1")
    assert code == 0
    assert json.loads(out)["result"]["Ak"] == 0
    code, out = run_cli(capsys, "degrees", "--n", "1", "--N", "2", "--deg", "2",
                        "--mu", "-1,2", "--k", "1")
    assert code == 1  # a domain error on the parsed value, not a usage error
    assert json.loads(out)["error"]["message"] == "mu_0 must equal 1"


def test_one_name_per_variety_and_one_output_format(capsys, tmp_path):
    code, out = run_cli(capsys, "catalog", "list")
    assert code == 0
    assert json.loads(out)["result"]["names"] == [
        "conic", "rational_normal_curve(d)", "quadric_surface", "user(path)"]
    code, out = run_cli(capsys, "catalog", "build", "quadric_hypersurface(1)",
                        "--out", str(tmp_path / "q"))
    assert code == 1
    assert "unknown catalog name" in json.loads(out)["error"]["message"]
    for argv in (["--format", "json", "catalog", "list"], ["catalog", "list", "--format", "json"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


def test_scan_command(capsys, conic_dir):
    code, out = run_cli(capsys, "scan", "--instance", conic_dir, "--k", "1",
                        "--bound", "2")
    assert code == 0
    result = json.loads(out)["result"]
    assert result["maxSlope"] <= 0
    assert result["destabilizerFound"] is False


def test_deterministic_output(capsys, conic_dir):
    args = ("asymptotics", "--instance", conic_dir, "--k", "1", "--lambda", "2,-1,-1")
    _, first = run_cli(capsys, *args)
    _, second = run_cli(capsys, *args)
    assert first == second


def test_domain_error_exit_code(capsys, conic_dir, tmp_path):
    sigma = identity_sigma_file(tmp_path, 3)
    code, out = run_cli(capsys, "energy", "--instance", conic_dir, "--k", "2",
                        "--sigma", sigma)
    assert code == 1
    assert "error" in json.loads(out)


# vectors of the wrong length (which zip would truncate), sample grids that
# leave (0, 1), and values or files that do not parse ({tmp} holds the files
# written below); each must exit 1 with an error object, not a result or a
# traceback
REJECTED = {
    "lambda-too-short": ("asymptotics", "--instance", "{conic}", "--k", "1", "--lambda", "1,-1"),
    "lambda-too-long-fit": ("asymptotics", "--instance", "{conic}", "--k", "1",
                            "--lambda", "2,-1,-1,0", "--fit", "1e-1:1e-5:5"),
    "weight-lambda-too-short": ("weight", "--lambda", "1,-1", "{conic}/hyper_1.json"),
    "path-xi-too-short": ("numeric", "--instance", "{conic}", "--check", "path", "--xi", "1,-1"),
    "fit-grid-from-zero": ("asymptotics", "--instance", "{conic}", "--k", "1",
                           "--lambda", "2,-1,-1", "--fit", "0:1e-5:5"),
    "samples-grid-negative": ("numeric", "--instance", "{conic}", "--check", "slope",
                              "--samples=-1e-1:1e-4:4"),
    "samples-above-one": ("numeric", "--instance", "{conic}", "--check", "slope",
                          "--samples", "1e-1,2"),
    "fit-grid-two-fields": ("asymptotics", "--instance", "{conic}", "--k", "1",
                            "--lambda", "2,-1,-1", "--fit", "1e-1:1e-4"),
    "fit-grid-not-a-number": ("asymptotics", "--instance", "{conic}", "--k", "1",
                              "--lambda", "2,-1,-1", "--fit", "a:1e-4:4"),
    "weight-lambda-not-integer": ("weight", "--lambda", "1,x,-1", "{conic}/hyper_1.json"),
    "slope-xi-not-integer": ("numeric", "--instance", "{conic}", "--check", "slope",
                             "--xi", "2,x,-1"),
    "path-xi-not-a-number": ("numeric", "--instance", "{conic}", "--check", "path",
                             "--xi", "2,x,-1"),
    "path-xi-nan": ("numeric", "--instance", "{conic}", "--check", "path", "--xi=nan,0,0"),
    "path-xi-infinite": ("numeric", "--instance", "{conic}", "--check", "path",
                         "--xi=inf,0,-inf"),
    "path-xi-spread-too-large": ("numeric", "--instance", "{conic}", "--check", "path",
                                 "--xi=300,0,-300"),
    "slope-samples-one-magnitude": ("numeric", "--instance", "{conic}", "--check", "slope",
                                    "--samples", "0.1"),
    "fit-grid-one-magnitude": ("asymptotics", "--instance", "{conic}", "--k", "1",
                               "--lambda", "2,-1,-1", "--fit", "0.1,0.1,0.1,0.1"),
    "slope-samples-spread-too-large": ("numeric", "--instance", "{conic}", "--check", "slope",
                                       "--xi=2,-1,-1", "--samples", "1e-1:1e-100:3"),
    "degrees-mu-not-a-fraction": ("degrees", "--n", "1", "--N", "2", "--deg", "2",
                                  "--mu", "1,x", "--k", "1"),
    "degrees-mu-zero-denominator": ("degrees", "--n", "1", "--N", "2", "--deg", "2",
                                    "--mu", "1,1/0", "--k", "1"),
    "catalog-argument-not-integer": ("catalog", "build", "rational_normal_curve(abc)",
                                     "--out", "{tmp}/rnc"),
    "sigma-not-json": ("energy", "--instance", "{conic}", "--k", "1",
                       "--sigma", "{tmp}/not.json"),
    "sigma-cell-one-part": ("energy", "--instance", "{conic}", "--k", "1",
                            "--sigma", "{tmp}/one_part.json"),
    "norm-not-json": ("norm", "{tmp}/not.json"),
    "norm-not-a-polynomial": ("norm", "{tmp}/one_part.json"),
    "minimize-negative-step": ("minimize", "--instance", "{conic}", "--k", "1",
                               "--step", "-1", "--iters", "3"),
    "sigma-cell-digit-string": ("energy", "--instance", "{conic}", "--k", "1",
                                "--sigma", "{tmp}/digit_string.json"),
    "sigma-cell-three-items": ("energy", "--instance", "{conic}", "--k", "1",
                               "--sigma", "{tmp}/three_items.json"),
    "sigma-cell-unknown-key": ("energy", "--instance", "{conic}", "--k", "1",
                               "--sigma", "{tmp}/unknown_key.json"),
    "sigma-cell-pair-list": ("energy", "--instance", "{conic}", "--k", "1",
                             "--sigma", "{tmp}/pair_list.json"),
    "instance-chow-not-json": ("scan", "--instance", "{tmp}/chow_not_json", "--k", "1",
                               "--bound", "1"),
    "instance-hyper-no-terms": ("scan", "--instance", "{tmp}/hyper_no_terms", "--k", "1",
                                "--bound", "1"),
    "instance-chow-imaginary": ("scan", "--instance", "{tmp}/chow_imaginary", "--k", "1",
                                "--bound", "1"),
}

# Each sigma is det 1 if its odd cell is misread as 1+2i ("12"), 1 ([1, 0, 7]
# and [1, 0]) or 0 ({"real": 5}), so a misread is accepted, not rejected.
MALFORMED_SIGMAS = {
    "digit_string.json": [["12", 0, 0], [0, {"re": "1/5", "im": "-2/5"}, 0], [0, 0, 1]],
    "three_items.json": [[[1, 0, 7], 0, 0], [0, 1, 0], [0, 0, 1]],
    "unknown_key.json": [[1, {"real": 5}, 0], [0, 1, 0], [0, 0, 1]],
    "pair_list.json": [[[1, 0], 0, 0], [0, 1, 0], [0, 0, 1]],
}


def _broken_instances(conic_dir, tmp_path):
    """Copies of the conic with one polynomial file replaced."""
    chow = json.loads((Path(conic_dir) / "chow.json").read_text())
    chow["terms"][0]["im"] = "1"
    for name, fname, text in (("chow_not_json", "chow.json", "nope"),
                              ("hyper_no_terms", "hyper_1.json", '{"rows": 2}'),
                              ("chow_imaginary", "chow.json", json.dumps(chow))):
        shutil.copytree(conic_dir, tmp_path / name)
        (tmp_path / name / fname).write_text(text)


@pytest.mark.parametrize("case", sorted(REJECTED))
def test_malformed_input_is_a_domain_error(capsys, conic_dir, tmp_path, case):
    (tmp_path / "not.json").write_text("[[1, 0, 0], [0, 1")
    (tmp_path / "one_part.json").write_text("[[[1], 0, 0], [0, 1, 0], [0, 0, 1]]")
    for fname, rows in MALFORMED_SIGMAS.items():
        (tmp_path / fname).write_text(json.dumps(rows))
    _broken_instances(conic_dir, tmp_path)
    code, out = run_cli(capsys, *(arg.format(conic=conic_dir, tmp=tmp_path)
                                  for arg in REJECTED[case]))
    assert code == 1
    assert set(json.loads(out)) == {"error"}


@pytest.mark.parametrize("cells", [
    [[float("nan"), 0, 0], [0, 1, 0], [0, 0, 1]],
    [[float("inf"), 0, 0], [0, 1, 0], [0, 0, 1]],
    [[1, float("nan"), 0], [0, 1, 0], [0, 0, 1]],
])
def test_non_finite_sigma_is_a_domain_error(capsys, conic_dir, tmp_path, cells):
    # Python's json reads NaN and Infinity; det - 1 is then NaN, which no
    # tolerance comparison rejects
    sigma = tmp_path / "sigma.json"
    sigma.write_text(json.dumps(cells))
    code, out = run_cli(capsys, "energy", "--instance", conic_dir, "--k", "1",
                        "--sigma", str(sigma))
    assert code == 1
    assert set(json.loads(out)) == {"error"}


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_non_finite_result_is_a_domain_error(capsys, conic_dir, monkeypatch, value):
    monkeypatch.setattr(kenergy.cli, "fs_norm_sq", lambda poly: value)
    code, out = run_cli(capsys, "norm", f"{conic_dir}/hyper_1.json")
    assert code == 1
    assert set(json.loads(out)) == {"error"}


def test_norm_beyond_the_float_range_is_a_domain_error(capsys, tmp_path):
    poly = tmp_path / "big.json"
    poly.write_text(json.dumps({"rows": 1, "cols": 3, "terms": [
        {"exp": [[1, 1, 0]], "re": "1" + "0" * 200, "im": "0"}]}))
    code, out = run_cli(capsys, "norm", str(poly))
    assert code == 1
    message = json.loads(out)["error"]["message"]
    assert "exp(921.03403719" in message  # the log norm, 400 log 10


def test_gaussian_rational_sigma_matches_its_float_copy(tmp_path, capsys, conic_dir):
    # diag(1+i, (1-i)/2, 1) has det 1; a nonzero imaginary part makes it floating
    cells = {
        "exact": [{"re": "1", "im": "1"}, {"re": "1/2", "im": "-1/2"}, {"re": "1", "im": "0"}],
        "float": [{"re": 1.0, "im": 1.0}, {"re": 0.5, "im": -0.5}, 1.0],
    }
    for kind, diag in cells.items():
        sigma = tmp_path / f"{kind}.json"
        sigma.write_text(json.dumps([[diag[i] if i == j else 0 for j in range(3)]
                                     for i in range(3)]))
        code, out = run_cli(capsys, "energy", "--instance", conic_dir, "--k", "1",
                            "--sigma", str(sigma))
        assert code == 0
        assert '"Mk": 0.754073759181' in out


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as err:
        main(["definitely-not-a-command"])
    assert err.value.code == 2


def test_every_command_help_names_its_formula():
    parser = build_parser()
    subparsers = next(
        a for a in parser._actions if isinstance(a, type(parser._subparsers._group_actions[0]))
    )
    markers = {
        "catalog": "C(n-i,n-k)",
        "degrees": "C(n-i,n-k)",
        "derive-chern": "C(n-i,n-k)",
        "norm": "|c|^2/alpha!",
        "weight": "log|t|^2",
        "energy": "LR(Delta^(n-i))",
        "asymptotics": "w(v_k) - w(w_k)",
        "scan": "A_k <= 0",
        "numeric": "int phidot [c_1 - mu_1 w]",
        "minimize": "Armijo",
    }
    for name, sub in subparsers.choices.items():
        assert markers[name] in sub.format_help() or markers[name] in (sub.description or "")


def test_catalog_build_compound_name(tmp_path, capsys):
    code, out = run_cli(capsys, "catalog", "build", "rational_normal_curve(3)",
                        "--out", str(tmp_path / "cubic"))
    assert code == 0
    payload = json.loads(out)
    assert payload["result"]["degrees"] == [6, 4]
    code, out = run_cli(capsys, "asymptotics", "--instance", str(tmp_path / "cubic"),
                        "--k", "1", "--lambda", "3,1,-1,-3")
    assert code == 0
    assert json.loads(out)["result"]["Ak"] == 0


def test_energy_with_float_sigma(tmp_path, capsys, conic_dir):
    sigma = tmp_path / "float_sigma.json"
    root6 = 2.0 ** (1.0 / 6.0)
    sigma.write_text(json.dumps([
        [{"re": 1.0 / root6, "im": 0.0}, 0, 0],
        [0, {"re": 2.0 ** 0.5 / root6, "im": 0.0}, 0],
        [0, 0, {"re": 1.0 / root6, "im": 0.0}],
    ]))
    code, out = run_cli(capsys, "energy", "--instance", conic_dir, "--k", "1",
                        "--sigma", str(sigma))
    assert code == 0
    assert isinstance(json.loads(out)["result"]["Mk"], float)


def test_numeric_mu_command(capsys, conic_dir):
    code, out = run_cli(capsys, "numeric", "--instance", conic_dir, "--check", "mu")
    assert code == 0
    result = json.loads(out)["result"]
    assert abs(result["mu1"] - 1.0) < 1e-5
    assert abs(result["volume"] - 2.0) < 1e-5


def test_minimize_final_gradient_norm_is_at_the_final_sigma(capsys, conic_dir):
    code, out = run_cli(capsys, "minimize", "--instance", conic_dir, "--k", "1",
                        "--seed", "5", "--iters", "3")
    assert code == 0
    result = json.loads(out)["result"]
    assert result["steps"] == 3 and not result["converged"]
    # the same seeded run gives the final sigma; the oracle is the norm of
    # central differences of the energy along the sl basis there
    instance = load_instance(conic_dir)
    sigma0 = GroupElement.from_matrix(random_sl(3, np.random.default_rng(5)), normalize=True)
    sigma = minimize_energy(instance, 1, sigma0, max_iters=3).sigmas[-1]
    h = 1e-5
    fd = []
    for b in sl_basis(3):
        plus, minus = (
            energy_via_formula(
                instance, GroupElement.from_matrix(sigma.matrix @ expm(s * b), normalize=True), 1
            ).total
            for s in (h, -h)
        )
        fd.append((plus - minus) / (2 * h))
    want = float(np.linalg.norm(fd))
    assert abs(result["finalGradientNorm"] - want) <= 1e-6 * want
