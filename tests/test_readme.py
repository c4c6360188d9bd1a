"""The README's quick start runs exactly as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quick_start_runs(capsys):
    section = README.read_text(encoding="utf-8").split("\n## Quick start\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, f"{README.name} quick start", "exec"), {})
    assert len(capsys.readouterr().out.splitlines()) == 2
