import os
import re

from child import run_python

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_readme_quick_start_runs():
    """The README's library quick start runs as written, so a change to the
    API it shows (covariance_row, kriging, variance_stationary_model, ...)
    fails here."""
    with open(os.path.join(ROOT, "README.md")) as f:
        blocks = re.findall(r"```python\n(.*?)```", f.read(), flags=re.S)
    assert len(blocks) == 1
    child = run_python(blocks[0], cwd=ROOT)
    assert child.exit_code == 0, child.stderr
