"""scripts/code_lines.py: which lines of a Python file count as code."""
from __future__ import annotations

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "code_lines.py"

SOURCE = '''\
"""Module docstring,
over two lines."""

import os  # a trailing comment does not hide the code

# a comment line


class Thing:
    """Class docstring."""

    def method(self, a,
               b):
        """Method docstring
        over two lines."""
        text = """a string
that is not a docstring"""
        return (a +
                b)
'''

# import, class, both lines of the def, both lines of the string
# assignment, both lines of the return
EXPECTED = 8


def load_script():
    spec = importlib.util.spec_from_file_location("code_lines", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_counts_only_lines_that_hold_code():
    assert load_script().code_lines(SOURCE) == EXPECTED


def test_prints_each_file_and_the_total(tmp_path, capsys):
    one = tmp_path / "one.py"
    one.write_text(SOURCE)
    two = tmp_path / "two.py"
    two.write_text("x = 1\n\n# done\n")
    assert load_script().main([str(one), str(two)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"{EXPECTED:6d} {one}", f"     1 {two}", f"{EXPECTED + 1:6d} total"]
