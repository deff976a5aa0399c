"""The README's code runs against the library as it is."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_runs():
    text = README.read_text()
    blocks = re.findall(r"^## Library example\n\n```python\n(.*?)^```", text, re.S | re.M)
    assert len(blocks) == 1, "README has no single 'Library example' python block"
    namespace = {}
    exec(compile(blocks[0], f"{README}:Library example", "exec"), namespace)
    assert namespace["ok"] and namespace["first_violation"] is None
