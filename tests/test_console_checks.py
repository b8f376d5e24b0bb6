"""Runs tests/console_checks.sh, the checks of the installed console
script that CI runs, here with `alias-scope` as a shell function around
`python -m alias_scope` and RUNNER_TEMP a temporary folder, so the one
copy of the checks also runs without an install."""

import os
import subprocess
import sys
from pathlib import Path

import alias_scope

SCRIPT = Path(__file__).with_name("console_checks.sh")
SHELL = 'alias-scope() { "$PYTHON" -m alias_scope "$@"; }; python() { "$PYTHON" "$@"; }; source "$0"'


def test_console_checks_pass(tmp_path):
    src = str(Path(alias_scope.__file__).resolve().parents[1])
    env = {
        **os.environ,
        "PYTHON": sys.executable,
        "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
        "RUNNER_TEMP": str(tmp_path),
    }
    done = subprocess.run(
        ["bash", "--noprofile", "--norc", "-eo", "pipefail", "-c", SHELL, str(SCRIPT)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
