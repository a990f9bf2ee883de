"""README's Library example runs as written, so an API change cannot leave it stale."""

import re
from pathlib import Path

import cvfmri


def test_library_example_runs(capsys):
    readme = (Path(cvfmri.__file__).parents[2] / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```", readme, re.DOTALL | re.MULTILINE)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})
    assert "active voxels, converged: True" in capsys.readouterr().out
