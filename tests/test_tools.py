"""Helpers of the measurement scripts under tools/."""

import importlib.util
import shutil
import subprocess
from pathlib import Path

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def load(name: str):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench_pairs = load("bench_pairs")
cli_walltime = load("cli_walltime")


def make_tree(root: Path) -> Path:
    """A checkout with the directories bench_pairs copies and a file it does not."""
    (root / "src" / "pkg").mkdir(parents=True)
    (root / "src" / "pkg" / "mod.py").write_text("x = 1\n")
    (root / "perfbench").mkdir()
    (root / "perfbench" / "run.py").write_text("print('run')\n")
    (root / "README.md").write_text("not copied\n")
    return root


class TestTreeDigest:
    def test_equal_for_two_copies(self, tmp_path):
        tree = make_tree(tmp_path / "a")
        shutil.copytree(tree, tmp_path / "b")
        assert bench_pairs.tree_digest(tree) == bench_pairs.tree_digest(tmp_path / "b")

    def test_one_byte_changes_it(self, tmp_path):
        tree = make_tree(tmp_path / "a")
        before = bench_pairs.tree_digest(tree)
        (tree / "src" / "pkg" / "mod.py").write_text("x = 2\n")
        assert bench_pairs.tree_digest(tree) != before

    def test_ignores_pycache(self, tmp_path):
        tree = make_tree(tmp_path / "a")
        before = bench_pairs.tree_digest(tree)
        for cache in (tree / "src" / "pkg" / "__pycache__", tree / "perfbench" / "__pycache__"):
            cache.mkdir()
            (cache / "mod.cpython-311.pyc").write_bytes(b"\x00\x01")
        assert bench_pairs.tree_digest(tree) == before

    def test_reads_paths_and_only_the_copied_directories(self, tmp_path):
        tree = make_tree(tmp_path / "a")
        before = bench_pairs.tree_digest(tree)
        (tree / "README.md").write_text("changed\n")
        assert bench_pairs.tree_digest(tree) == before
        (tree / "src" / "pkg" / "mod.py").rename(tree / "src" / "pkg" / "other.py")
        assert bench_pairs.tree_digest(tree) != before


def test_cli_walltime_runs_compile_into_a_fresh_cache(monkeypatch, tmp_path):
    envs = []

    def fake_run(cmd, cwd, env, capture_output):
        assert not any(Path(env["PYTHONPYCACHEPREFIX"]).iterdir())
        envs.append(env)
        return subprocess.CompletedProcess(cmd, 0, b"", b"")

    monkeypatch.setattr(cli_walltime.subprocess, "run", fake_run)
    for _ in range(2):
        cli_walltime.run_once(tmp_path, ("eval", "bright_eval.json"))
    assert [env["PYTHONDONTWRITEBYTECODE"] for env in envs] == ["1", "1"]
    caches = [env["PYTHONPYCACHEPREFIX"] for env in envs]
    assert caches[0] != caches[1] and not any(Path(c).exists() for c in caches)
