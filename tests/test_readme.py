"""The README's library example, run as written on the bundled dataset."""

import re
import shutil
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]


def test_library_example_runs(tmp_path, monkeypatch, capsys):
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    [code] = re.findall(r"^```python\n(.*?)^```$", readme, flags=re.S | re.M)
    for name in ("edges.txt", "features.txt", "labels.txt"):
        shutil.copy(REPO_ROOT / "data" / "synthetic30" / name, tmp_path / name)
    monkeypatch.chdir(tmp_path)
    exec(compile(code, "README.md", "exec"), {})
    micro, macro = map(float, capsys.readouterr().out.split())
    assert 0.0 <= micro <= 1.0
    assert 0.0 <= macro <= 1.0
