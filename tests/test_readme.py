"""The README's Python API example runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_python_api_example_prints(capsys):
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Python API\n", 1)[1].split("\n## ", 1)[0]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, f"{README.name} (Python API)", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    count, mean_error = lines[0].split()
    assert int(count) > 0 and float(mean_error) > 0
    assert lines[1].startswith("All ")
    assert 0.0 <= float(lines[-1]) <= 1.0   # the fraction of rounds elo2 won
