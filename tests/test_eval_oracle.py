"""`eval`'s u on every field_tau eval pool member of the benchmark, and on two
hot seeds beyond the pool (N = 14 and 16), against the mpmath tau oracle."""

import json

import numpy as np
import pytest

from cnoidal_kdv import cli
from oracles import eval_oracle_cases

CASES = eval_oracle_cases()
U_TOL = 1e-10           # |u - u_oracle| <= U_TOL max(1, |u_oracle|)


def test_every_eval_member_and_seed_is_here():
    labels = [label for label, _, _ in CASES]
    assert len(labels) == 92 + 2
    assert all(samples for _, _, samples in CASES)


@pytest.mark.parametrize("cfg, samples", [case[1:] for case in CASES],
                         ids=[case[0] for case in CASES])
def test_eval_u_matches_oracle(tmp_path, capsys, cfg, samples):
    path = tmp_path / "eval.json"
    path.write_text(json.dumps(cfg))
    assert cli.main(["eval", "--config", str(path)]) == 0
    lines = [ln for ln in capsys.readouterr().out.splitlines() if not ln.startswith("#")]
    rows = np.array([[float(c) for c in ln.split(",")] for ln in lines[1:]])
    assert np.all(np.isfinite(rows[:, 2]))
    u_at = {(x, t): u for x, t, u in rows[:, :3].tolist()}
    for x, t, want in samples:
        assert abs(u_at[(x, t)] - want) <= U_TOL * max(1.0, abs(want)), (x, t)
