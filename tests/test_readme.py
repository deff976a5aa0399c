"""The README's code and config example run against the library as it is."""

import json
import re
from importlib import resources
from pathlib import Path

import jsonschema

from langevin_contract.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_runs():
    text = README.read_text()
    blocks = re.findall(r"^## Library example\n\n```python\n(.*?)^```", text, re.S | re.M)
    assert len(blocks) == 1, "README has no single 'Library example' python block"
    namespace = {}
    exec(compile(blocks[0], f"{README}:Library example", "exec"), namespace)
    assert namespace["ok"] and namespace["first_violation"] is None


def test_readme_config_example_runs_under_every_command(tmp_path):
    blocks = re.findall(r"^### Config format\n.*?^```json\n(.*?)^```", README.read_text(), re.S | re.M)
    assert len(blocks) == 1, "README has no single 'Config format' json block"
    schema = resources.files("langevin_contract.schemas").joinpath("config.schema.json").read_text()
    jsonschema.validate(json.loads(blocks[0]), json.loads(schema))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(blocks[0])
    for command in ("couple", "certify", "gaussian-scan", "glc-scan"):
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / command)]) == 0, command
