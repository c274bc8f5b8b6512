"""The Python examples of README.md run as written."""

import os
import re

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def test_readme_python_blocks_run():
    with open(README, encoding="utf-8") as f:
        blocks = re.findall(r"^```python\n(.*?)^```", f.read(), re.S | re.M)
    assert blocks
    for block in blocks:
        exec(compile(block, README, "exec"), {})
