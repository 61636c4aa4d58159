import contextlib
import io
import re
from pathlib import Path

import dgspec

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def test_public_names_sorted_unique_and_bound():
    names = dgspec.__all__
    assert names == sorted(set(names))
    for name in names:
        assert hasattr(dgspec, name), name


def test_readme_quickstart_and_entry_points():
    # the quickstart runs and prints exactly what its ``# value`` comments say
    block = re.search(r"```python\n(.*?)```", README, re.S).group(1)
    expected = [line.split("#", 1)[1].strip() for line in block.splitlines() if line.startswith("print(")]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(block, {})
    assert out.getvalue().splitlines() == expected == ["5.0", "ComponentTag.DIRECTED_CYCLE"]
    # every documented entry point resolves on the package
    paragraph = re.search(r"Key entry points:(.*?)\n\n", README, re.S).group(1)
    names = re.findall(r"`(\w+)`", paragraph)
    assert names
    assert [name for name in names if not hasattr(dgspec, name)] == []
