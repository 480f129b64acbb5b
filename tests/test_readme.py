"""The README's library example runs as written against the package."""
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def quick_start_code() -> str:
    """The python block under the "Quick start (library)" heading."""
    text = README.read_text(encoding="utf-8")
    section = text.split("## Quick start (library)", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, flags=re.S)
    assert len(blocks) == 1, "the quick start holds one python block"
    return blocks[0]


def test_readme_quick_start_runs():
    names = {}
    exec(compile(quick_start_code(), str(README), "exec"), names)
    assert 0.0 < names["h_hat"] < 1.0
    assert names["ev_h"] > names["params"].v0
    # a noiseless transform gives back its amplitude
    assert abs(names["a_hat"] - 1.0) <= 1e-9
