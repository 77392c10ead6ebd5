"""Process setup and op execution shared by the benchmark scripts.

Importing this module pins BLAS and OpenMP to one thread; it must be imported
before numpy is.  The package is imported from the checkout's `src/`, never
from an installed copy.
"""

from __future__ import annotations

import os
import sys

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

# must run before numpy loads BLAS; check_thread_pins() verifies it took effect
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import contextlib  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import importlib.util  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import warnings  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

_BLAS_THREAD_SYMBOLS = ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                        "openblas_get_num_threads64_", "openblas_get_num_threads")


class BenchmarkError(RuntimeError):
    """The benchmark cannot run here; nothing is measured."""


def import_package(root: Path):
    """Import cnoidal_kdv.cli from root/src and return the module."""
    src = (root / "src").resolve()
    if not (src / "cnoidal_kdv" / "cli.py").is_file():
        raise BenchmarkError(f"no package source under {src}")
    sys.path.insert(0, str(src))
    cli = importlib.import_module("cnoidal_kdv.cli")
    if not Path(cli.__file__).resolve().is_relative_to(src):
        raise BenchmarkError(f"cnoidal_kdv imported from {cli.__file__}, not {src}")
    return cli


def _blas_libraries() -> list[str]:
    paths = []
    for mod in ("numpy", "scipy"):
        spec = importlib.util.find_spec(mod)
        if spec is None or spec.origin is None:
            continue
        pkg = Path(spec.origin).parent
        for libdir in (pkg.parent / f"{mod}.libs", pkg / ".libs"):
            paths += sorted(glob.glob(str(libdir / "*openblas*.so*")))
    return paths


def check_thread_pins() -> dict:
    """Raise unless every pin is set and each loaded OpenBLAS runs 1 thread."""
    found = {}
    for var in THREAD_VARS:
        if os.environ.get(var) != "1":
            raise BenchmarkError(f"{var} = {os.environ.get(var)!r}, expected '1'")
    for path in _blas_libraries():
        lib = ctypes.CDLL(path)
        for sym in _BLAS_THREAD_SYMBOLS:
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[Path(path).name] = fn()
                break
    bad = {k: v for k, v in found.items() if v != 1}
    if bad:
        raise BenchmarkError(f"BLAS thread pins not in effect: {bad}")
    return found


def environment(blas_threads: dict) -> dict:
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        l2 = os.sysconf("SC_LEVEL2_CACHE_SIZE")
    except (ValueError, OSError):
        l2 = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "cpu": platform.processor() or "unreported",
        "l2_bytes": l2 or "unreported",
    }


def setup_seconds(root: Path, repeats: int) -> list[float]:
    """Wall time of a fresh interpreter importing cnoidal_kdv.cli, per repeat."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str((root / "src").resolve())
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", "import cnoidal_kdv.cli"],
                              cwd=root, env=env, capture_output=True, timeout=120)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise BenchmarkError(f"import failed: {proc.stderr.decode()[-400:]}")
    return times


def work_dir(root: Path, name: str) -> Path:
    path = root / ".perfbench" / name
    path.mkdir(parents=True, exist_ok=True)
    return path


@dataclass
class Result:
    seconds: float
    code: int | None
    out: str
    err: str
    exc: str | None = None


class Runner:
    """Runs ops in-process through cli.main, capturing stdout and stderr."""

    def __init__(self, directory: Path):
        self.directory = directory

    def write_config(self, op, name: str) -> str:
        path = self.directory / f"{name}.json"
        with open(path, "w") as fh:
            json.dump(op.cfg, fh)
        return str(path)

    def run(self, op, config_path: str) -> Result:
        cli = sys.modules["cnoidal_kdv.cli"]
        argv = [op.command, "--config", config_path, *op.args]
        out, err = io.StringIO(), io.StringIO()
        exc = None
        code = None
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                t0 = time.perf_counter()
                try:
                    code = cli.main(argv)
                except Exception as e:  # an op that crashes counts as failed
                    exc = f"{type(e).__name__}: {e}"
                seconds = time.perf_counter() - t0
        return Result(seconds, code, out.getvalue(), err.getvalue(), exc)


def digest(text: str) -> str:
    return hashlib.sha1(text.encode()).hexdigest()
