"""The README's code must run against the package as it is."""
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def python_block(heading):
    """The first ```python block under the ``## heading`` section of the README."""
    section = README.read_text(encoding="utf-8").split(f"\n## {heading}\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section.split("\n## ", 1)[0], re.S).group(1)


def test_library_example_runs(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    namespace = {}
    exec(compile(python_block("Library"), "README.md", "exec"), namespace)
    assert namespace["sched"].times_ns == (0, 3_000_000, 6_000_000)
    assert (tmp_path / "runs" / "fig12_mitigation" / "manifest.json").is_file()
