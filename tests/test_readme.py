"""The README's Python API example runs against the package as it is."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_python_api_example_runs():
    section = README.read_text(encoding="utf-8").split("\n## Python API\n", 1)[1]
    block = re.search(r"^```python\n(.*?)^```$", section, re.S | re.M)
    exec(compile(block.group(1), f"{README}:Python API", "exec"), {})
