"""Run Python code, or graphfield's CLI, in a child process.

A crash in the child (a signal such as SIGABRT from heap corruption) then
fails the one test that ran it, with the argv named in the result, instead
of killing the test runner.  The child imports graphfield from the same
source tree as the tests.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
from dataclasses import dataclass

import graphfield

_SRC = os.path.dirname(os.path.dirname(graphfield.__file__))
_CLI = "import sys\nfrom graphfield.cli import main\nsys.exit(main(sys.argv[1:]))\n"


@dataclass
class ChildRun:
    argv: list
    exit_code: int | None  # None when a signal ended the child
    signal: str | None     # the signal's name, such as "SIGABRT"
    stdout: str
    stderr: str


def run_python(code: str, *args, env=None, cwd=None, timeout: float = 300.0) -> ChildRun:
    """Run `python -c code *args` with graphfield importable; env entries
    are added to this process's environment."""
    env = dict(os.environ, **(env or {}))
    env["PYTHONPATH"] = os.pathsep.join([_SRC, os.environ.get("PYTHONPATH", "")])
    argv = [str(a) for a in args]
    proc = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True,
                          env=env, cwd=cwd, timeout=timeout)
    if proc.returncode < 0:
        return ChildRun(argv, None, signal.Signals(-proc.returncode).name, proc.stdout,
                        proc.stderr)
    return ChildRun(argv, proc.returncode, None, proc.stdout, proc.stderr)


def run_cli(argv, **kwargs) -> ChildRun:
    """graphfield.cli.main(argv) in a child process."""
    return run_python(_CLI, *argv, **kwargs)
