"""Golden outputs of the exact lane, pinned by sha256.

Every catalog build file and the stdout of the commands that read only exact
input (exact det-1 sigma, integer weights, rational mu) must stay byte for
byte the same under refactors of the exact arithmetic.  Commands run in
process through `kenergy.cli.main`, from inside one scratch directory and
with relative paths, so the echoed configuration carries no machine path.
"""

import contextlib
import hashlib
import io
import json
import os

import pytest

from kenergy.cli import main

BUILDS = {
    "conic": "conic",
    "rnc3": "rational_normal_curve(3)",
    "rnc4": "rational_normal_curve(4)",
    "rnc5": "rational_normal_curve(5)",
    "quadric": "quadric_surface",
}

# exact det-1 matrices, neither diagonal nor unitary
SIGMAS = {
    "sigma3.json": [["2", "1/2", "0"], ["2", "1", "0"], ["0", "1/3", "1"]],
    "sigma4.json": [["1", "1/2", "0", "0"], ["0", "1", "0", "0"],
                    ["-1/3", "0", "1", "2"], ["0", "0", "0", "1"]],
}

COMMANDS = {
    "energy-conic-k1": ("energy", "--instance", "conic", "--k", "1", "--sigma", "sigma3.json",
                        "--breakdown", "--cross-check"),
    "energy-quadric-k1": ("energy", "--instance", "quadric", "--k", "1",
                          "--sigma", "sigma4.json", "--breakdown", "--cross-check"),
    "energy-quadric-k2": ("energy", "--instance", "quadric", "--k", "2",
                          "--sigma", "sigma4.json", "--breakdown", "--cross-check"),
    "scan-quadric-k2": ("scan", "--instance", "quadric", "--k", "2", "--bound", "4"),
    "weight-conic-hyper1": ("weight", "--lambda", "1,1,-2", "conic/hyper_1.json"),
    "weight-rnc3-chow": ("weight", "--lambda", "3,1,-1,-3", "rnc3/chow.json"),
    "degrees": ("degrees", "--n", "2", "--N", "3", "--deg", "2", "--mu", "1,2,2", "--k", "1"),
    "derive-chern": ("derive-chern", "--n", "2", "--k", "2"),
    "norm-rnc5-chow": ("norm", "rnc5/chow.json"),
}

FILE_SHA256 = {
    "conic/chow.json": "3c562a34e5164e9f9a5f3b9c94e06ef8a4fc7ec370707761474c9ced1f9dea95",
    "conic/hyper_1.json": "a905b34aaab793163db6c037bee7eb11ad4c46cc8b26e2b79c48dfae9522b634",
    "conic/instance.json": "191257836b76cd31e4249b0d499801c8465f96587e0dd95dda23d19a0f47e534",
    "rnc3/chow.json": "2d828569d9c6408361ec08b6ed3e50cbd832f310c4598d38833feaa079b70b9e",
    "rnc3/hyper_1.json": "73919ffd42688d344dafa9a27d556e714a11161de59ea7824095c88713d9405d",
    "rnc3/instance.json": "0815c3b013a2b5db95283311770d00c58b5e2ab6cb8a8e5c7f3a1f120adb2f03",
    "rnc4/chow.json": "b7d99f7c4bd3c3f809ee1ed24efd5517e3b3253d137d778c21cd5d7c3f72a913",
    "rnc4/hyper_1.json": "5034595ccd0e439508ca8798d6c4e020e39399dd4d40fcaa2833339da52d2637",
    "rnc4/instance.json": "c4e768e0b41f071522a16ed4d5f3d1c806d500c88d96797f47848f8553f00817",
    "rnc5/chow.json": "8f59194a201ad0754b4391cee3ba0d59167d1131b7ca7d66b9f63a8bf1fbc748",
    "rnc5/hyper_1.json": "8ecf7f0cd350fc6f70f177cef39b1d45c601cc00f8900f76d34f296d80b4f896",
    "rnc5/instance.json": "d520e60bf975981f2ed94f2ffac010c016cdf07418bd785de17aabd6119f8875",
    "quadric/chow.json": "df8333e93ee961dc8143cbab9085516e87c26dd46d98cd74379f4359d65f021e",
    "quadric/hyper_1.json": "951ccb77fadc6cd36013e72bb1d0e68fbe44a9e3d7d0810e8bfc6fb12ffac00e",
    "quadric/hyper_2.json": "af7eed5558c8a08525188de4cab7e705bd60c3392ec8e63a5bebfe014b4cf102",
    "quadric/instance.json": "807214d3e197bee3f407336c0231f43c1a64b01c7fc8880a7a7125dd56d1340f",
}

STDOUT_SHA256 = {
    "energy-conic-k1": "29c668419ba5f07bd5101d454ada51035159df86f238f6d43857440cd92c2ade",
    "energy-quadric-k1": "ff7088da8645508707d7a818e7ec23da038f594af14c6a8a91693152ef4e4b50",
    "energy-quadric-k2": "bd9071d55664df6d59e4a77822041de20aaa22ae05f6b2fe796dda64b7c9c2f6",
    "scan-quadric-k2": "b54e2f06684e80a498d17cef02f95e626c097d44b046944def4a1b87e6a4da4f",
    "weight-conic-hyper1": "57ebb0975f6a2fcf5245477421b821de960516318c9ce83eac5ae152610afe01",
    "weight-rnc3-chow": "305e35e9368c21640295efe073019fe33c7a0463eba1ed20889bee8de99e61f0",
    "degrees": "851eeaa7284c9a12eaf58e75d99f75728c65e4fd232b2678721dd5029de6dcd3",
    "derive-chern": "bc79ba24ec0c0c94e17ec675bccee74850b5739667ae1338720d6d3f1835f742",
    "norm-rnc5-chow": "45f1255bcb94588a77e0890e6ce81fdaf317ac861ab35ca6aab3dd4d4f219fc3",
}


def _sha256(data):
    return hashlib.sha256(data).hexdigest()


@pytest.fixture(scope="module")
def golden(tmp_path_factory):
    """Build every instance and run every command once; hash what they wrote."""
    root = tmp_path_factory.mktemp("golden")
    files, stdout = {}, {}
    cwd = os.getcwd()
    os.chdir(root)
    try:
        for out, name in BUILDS.items():
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(["catalog", "build", name, "--out", out]) == 0
            for fname in sorted(os.listdir(out)):
                with open(os.path.join(out, fname), "rb") as fh:
                    files[f"{out}/{fname}"] = _sha256(fh.read())
        for fname, rows in SIGMAS.items():
            with open(fname, "w") as fh:
                json.dump([[{"re": v, "im": "0"} for v in row] for row in rows], fh)
        for case, argv in COMMANDS.items():
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                assert main(list(argv)) == 0, case
            stdout[case] = _sha256(buf.getvalue().encode())
    finally:
        os.chdir(cwd)
    return files, stdout


def test_catalog_build_files_are_unchanged(golden):
    assert golden[0] == FILE_SHA256


@pytest.mark.parametrize("case", sorted(COMMANDS))
def test_exact_command_stdout_is_unchanged(golden, case):
    assert golden[1][case] == STDOUT_SHA256[case]
