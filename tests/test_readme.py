import os
import re
import subprocess
import sys

import graphfield

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_readme_quick_start_runs():
    """The README's library quick start runs as written, so a change to the
    API it shows (covariance_row, kriging, variance_stationary_model, ...)
    fails here."""
    with open(os.path.join(ROOT, "README.md")) as f:
        blocks = re.findall(r"```python\n(.*?)```", f.read(), flags=re.S)
    assert len(blocks) == 1
    src = os.path.dirname(os.path.dirname(graphfield.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    subprocess.run([sys.executable, "-c", blocks[0]], check=True, env=env, cwd=ROOT)
