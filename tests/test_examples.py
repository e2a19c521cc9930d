"""Every script under ``examples/`` runs to completion.

Each one runs in its own interpreter, with the working directory and
``TMPDIR`` inside the test's temporary directory, so whatever it writes
is cleaned up with it.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))

#: Seconds one example may take; all of them together take a few.
TIMEOUT_S = 120


def test_examples_found():
    assert EXAMPLES


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda path: path.stem)
def test_example_runs(script, tmp_path):
    env = dict(os.environ)
    source = str(ROOT / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (source, env.get("PYTHONPATH")) if part
    )
    env["TMPDIR"] = str(tmp_path)
    completed = subprocess.run(
        [sys.executable, str(script)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=TIMEOUT_S,
    )
    assert completed.returncode == 0, completed.stdout + completed.stderr
