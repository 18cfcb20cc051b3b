import pathlib
import re

import pytest

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_library_quick_start_runs(capsys):
    """The first python block of the README runs as written and prints the
    4-link critical force it quotes."""
    block = re.search(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S).group(1)
    exec(compile(block, str(README), "exec"), {})
    first = capsys.readouterr().out.splitlines()[0]
    assert float(first) == pytest.approx(0.9240, abs=5e-5)
