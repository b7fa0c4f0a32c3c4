"""scripts/code_lines.py counts lines holding code, not docstrings, comments
or blank lines."""

import importlib.util
from pathlib import Path

_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "code_lines.py"
_SPEC = importlib.util.spec_from_file_location("code_lines", _SCRIPT)
code_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(code_lines)

_SOURCE = '''"""Module docstring,
over two lines."""

import math  # a trailing comment


class Box:
    """Class docstring."""

    # a comment line
    def area(self, w,
             h):
        """Function docstring
        over two lines."""
        return math.prod(
            (w,
             h),
        )

    label = """a string that is code,
not a docstring"""
'''


def test_counts_code_lines_of_synthetic_module(tmp_path, capsys):
    # import, class, def (2 lines), return call (4 lines), label (2 lines)
    assert code_lines.code_lines(_SOURCE) == 10
    path = tmp_path / "box.py"
    path.write_text(_SOURCE)
    assert code_lines.main([str(path)]) == 0
    assert capsys.readouterr().out == "    10  box.py\n    10  total\n"
