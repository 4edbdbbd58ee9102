from __future__ import annotations

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_example_prints_its_comment(capsys):
    text = README.read_text(encoding="utf-8")
    block = re.search(r"## Library use\n\n```python\n(.*?)```", text, re.S).group(1)
    exec(compile(block, str(README), "exec"), {})
    assert capsys.readouterr().out == "Outcome.SOLVED 7\n"
