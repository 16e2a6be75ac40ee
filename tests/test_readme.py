"""The README's library example, run as written on the bundled dataset."""

import re
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]


def run_example(tmp_path, monkeypatch, capsys, appended=None):
    """Run the example on a copy of data/synthetic30, with ``appended``
    lines added to the end of the named files."""
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    [code] = re.findall(r"^```python\n(.*?)^```$", readme, flags=re.S | re.M)
    for name in ("edges.txt", "features.txt", "labels.txt"):
        text = (REPO_ROOT / "data" / "synthetic30" / name).read_text(encoding="utf-8")
        (tmp_path / name).write_text(text + (appended or {}).get(name, ""), encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    exec(compile(code, "README.md", "exec"), {})
    micro, macro = map(float, capsys.readouterr().out.split())
    assert 0.0 <= micro <= 1.0
    assert 0.0 <= macro <= 1.0


def test_library_example_runs(tmp_path, monkeypatch, capsys):
    run_example(tmp_path, monkeypatch, capsys)


def test_library_example_runs_with_a_labeled_node_that_has_no_edge(
    tmp_path, monkeypatch, capsys
):
    # node 30 has features and a label but no edge: the tensor, and so the
    # embedding, has 31 nodes while the edge list names 30
    appended = {"features.txt": "30 0\n30 1\n", "labels.txt": "30 0\n"}
    run_example(tmp_path, monkeypatch, capsys, appended)
