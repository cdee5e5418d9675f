"""README.md's library tour runs as printed, so the docs cannot drift from
the API unnoticed."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_tour_runs(capsys):
    text = README.read_text()
    tour = text[text.index("## Library tour"):]
    block = re.search(r"```python\n(.*?)```", tour, re.S).group(1)
    exec(compile(block, "README.md", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "3.84"  # the commented min_gap
    assert float(lines[2]) < 1e-12  # the Legendre triple's ODE residual
