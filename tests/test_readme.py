import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_quick_start_runs(capsys):
    # the documented example must keep working as the API changes
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    exec(compile(block, "README.md", "exec"), {})
    words = capsys.readouterr().out.split()
    assert words[0::2] == ["WO", "RA"] and all(float(v) > 0 for v in words[1::2])
