"""The package's public name list, its dependencies and what running it loads."""

import ast
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

import cnoidal_kdv
from test_cli import CLI_ENV

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = Path(cnoidal_kdv.__file__).parent


def test_all_names_resolve_and_none_is_a_module():
    assert len(set(cnoidal_kdv.__all__)) == len(cnoidal_kdv.__all__)
    for name in cnoidal_kdv.__all__:
        assert not isinstance(getattr(cnoidal_kdv, name), types.ModuleType), name


def test_import_loads_no_scipy_solver():
    # the runtime is numpy alone: neither a gas solve nor the phase probe loads scipy
    code = f"""
import contextlib, io, sys
from cnoidal_kdv import cli, dynamics, elliptic, tau
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["gas", "--config", {str(ROOT / "demos/configs/gas_hot.json")!r},
                     "--double-nodes"]) == 0
curve = elliptic.half_periods(2.0, 1.0, -3.0)
point = elliptic.JacobianPoint(beta=0.30 + 0j, chi=0)
ctx = tau.build_context(tau.spectrum_from_points(curve, [(point, 0.0)]))
dynamics.background_shift_probe(ctx, 15.0 / ctx.spectrum.velocity[0], [(30, 36)])
print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
"""
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=CLI_ENV, check=True)
    assert res.stdout.strip() == "[]"


def test_no_module_imports_scipy():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [f"{path.name}: {name}" for name in names if name.split(".")[0] == "scipy"]
    assert found == []


def test_runtime_depends_on_numpy_alone():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        deps = tomllib.load(fh)["project"]["dependencies"]
    assert [re.match(r"[A-Za-z0-9_.-]+", dep).group() for dep in deps] == ["numpy"]


def test_riemann_takes_no_stencil():
    # Theta, Theta' and Theta'' are closed-form lattice sums: riemann needs no fd stencil
    tree = ast.parse((PACKAGE / "riemann.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported |= {node.module or ""} | {alias.name for alias in node.names}
        elif isinstance(node, ast.Import):
            imported |= {alias.name for alias in node.names}
    assert not {"fd", "cnoidal_kdv.fd"} & imported
    assert not any(isinstance(node, ast.Name) and node.id == "fd" for node in ast.walk(tree))
