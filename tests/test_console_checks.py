"""Runs tests/console_checks.sh, the checks of the installed console
script that CI runs, here with `alias-scope` as a shell function around
`python -m alias_scope` and RUNNER_TEMP a temporary folder, so the one
copy of the checks also runs without an install.  tests/smoke_scripts.sh,
CI's smoke runs of the scripts, runs the same way."""

import os
import subprocess
import sys
from pathlib import Path

import alias_scope

SHELL = 'alias-scope() { "$PYTHON" -m alias_scope "$@"; }; python() { "$PYTHON" "$@"; }; source "$0"'


def _run_checks(name: str, tmp_path) -> None:
    src = str(Path(alias_scope.__file__).resolve().parents[1])
    env = {
        **os.environ,
        "PYTHON": sys.executable,
        "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
        "RUNNER_TEMP": str(tmp_path),
    }
    done = subprocess.run(
        ["bash", "--noprofile", "--norc", "-eo", "pipefail", "-c", SHELL, str(Path(__file__).with_name(name))],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]


def test_console_checks_pass(tmp_path):
    _run_checks("console_checks.sh", tmp_path)


def test_smoke_scripts_pass(tmp_path):
    _run_checks("smoke_scripts.sh", tmp_path)
