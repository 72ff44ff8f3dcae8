"""README's library quickstart runs against the package as it is."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quickstart_runs():
    block = re.search(r"```python\n(.*?)```", README.read_text(), re.DOTALL)
    assert block is not None, "README has no python block"
    exec(compile(block.group(1), f"{README}:quickstart", "exec"), {})
