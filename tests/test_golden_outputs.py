"""tools/golden_outputs.py, the refactor check, without running its commands."""
import importlib.util
from pathlib import Path

import pytest

from fraclangevin.cli import main

TOOL = Path(__file__).resolve().parent.parent / "tools" / "golden_outputs.py"


@pytest.fixture(scope="module")
def golden():
    spec = importlib.util.spec_from_file_location("golden_outputs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_commands_write_28_distinct_files(golden):
    commands = list(golden.commands())
    assert len(commands) == 14
    files = []
    for name, args in commands:
        assert args[0] in main.commands
        files += [f"out_{name}.txt", args[args.index("--out") + 1]]
    assert len(files) == len(set(files)) == 28


@pytest.mark.parametrize("new, old, report", [
    (b"t,V\n0.0,1.0\n", b"t,V\n0.0,1.00\n", "same numbers, other bytes"),
    (b"1.0,2.0,3.0", b"1.0,2.0", "3 numbers against 2"),
    (b"[1.0, 2.0, -4.0]", b"[1.0, 2.5, -4.0]", "max abs 0.5, max rel 0.2"),
    (b'{"a": 1e-3, "b": 10}', b'{"a": 2e-3, "b": 11}', "max abs 1, max rel 0.5"),
], ids=["other-bytes", "count", "one-moved", "largest-of-each"])
def test_largest_change(golden, new, old, report):
    assert golden.largest_change(new, old) == report
