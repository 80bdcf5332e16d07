"""The README's examples run as written."""

import re
import shlex
from pathlib import Path

from rankelo.cli import run

README = Path(__file__).resolve().parent.parent / "README.md"


def section(title: str) -> str:
    text = README.read_text(encoding="utf-8")
    return text.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def test_python_api_example_prints(capsys):
    code = re.search(r"```python\n(.*?)```", section("Python API"), re.S).group(1)
    exec(compile(code, f"{README.name} (Python API)", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    count, mean_error = lines[0].split()
    assert int(count) > 0 and float(mean_error) > 0
    assert lines[1].startswith("All ")
    assert 0.0 <= float(lines[-1]) <= 1.0   # the fraction of rounds elo2 won


def test_command_line_example_exits_0(tmp_path, monkeypatch, capsys):
    block = re.search(r"```sh\n(.*?)```", section("Command line"), re.S).group(1)
    commands = [shlex.split(line) for line in block.replace("\\\n", " ").splitlines()
                if line.strip() and not line.lstrip().startswith("#")]
    assert len(commands) == 8 and all(argv[0] == "rankelo" for argv in commands)
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        code = run(argv[1:])
        assert code == 0, (argv, capsys.readouterr().err)
    assert (tmp_path / "state.snap").is_file() and (tmp_path / "replay_log.csv").is_file()
