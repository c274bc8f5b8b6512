"""Smoke runs of the experiment scripts under scripts/, as subprocesses."""

import os
import subprocess
import sys

import pytest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("args, expected", [
    (["run_zoo.py"], "random_flag_b"),
    (["find_star_violation.py"], "boundary of the covering chain is nonzero on 48 cells"),
    (["moment_oracle_sweep.py", "--samples", "2", "--doubled"], "mismatches: 0"),
])
def test_script_runs(args, expected):
    run = subprocess.run(
        [sys.executable, os.path.join(REPO, "scripts", args[0]), *args[1:]],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=os.path.join(REPO, "src")),
    )
    assert run.returncode == 0, run.stderr
    assert expected in run.stdout
