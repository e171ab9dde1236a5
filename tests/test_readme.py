"""The README's Python example runs as written."""
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_example(capsys):
    # the only ```python block; its heights may move by ulps, so only the
    # Newick line's end and the cut's labels are pinned
    (block,) = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"), re.M | re.S)
    exec(compile(block, str(README), "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert lines[-2].endswith(";"), lines
    assert lines[-1] == "(0, 0, 1, 1)"
