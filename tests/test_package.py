"""The package's public name list and what importing it loads."""

import subprocess
import sys
import types

import cnoidal_kdv
from test_cli import CLI_ENV


def test_all_names_resolve_and_none_is_a_module():
    assert len(set(cnoidal_kdv.__all__)) == len(cnoidal_kdv.__all__)
    for name in cnoidal_kdv.__all__:
        assert not isinstance(getattr(cnoidal_kdv, name), types.ModuleType), name


def test_import_loads_no_scipy_solver():
    # scipy.optimize and scipy.linalg cost most of a CLI process's start-up;
    # they load only in the functions that call them
    code = ("import sys, cnoidal_kdv, cnoidal_kdv.cli; "
            "print(sorted({'scipy.optimize', 'scipy.linalg'} & set(sys.modules)))")
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=CLI_ENV, check=True)
    assert res.stdout.strip() == "[]"
