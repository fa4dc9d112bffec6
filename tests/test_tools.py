"""``tools/code_lines.py``, the code-line count of the package."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("code_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_counts_statements_and_leaves_out_docstrings_comments_and_blanks(tmp_path):
    source = tmp_path / "sample.py"
    source.write_text(
        '"""Module docstring,\n\nover three lines."""\n'
        "\n"
        "# a comment\n"
        "import math  # a trailing comment\n"
        "\n"
        "\n"
        "class A:\n"
        '    """Class docstring."""\n'
        "\n"
        "    def f(self, x):\n"
        '        """Function docstring."""\n'
        '        text = """a string\n'
        'that is not a docstring"""\n'
        "        return math.sqrt(\n"
        "            x\n"
        "        )\n"
    )
    # import, class, def, the two lines of the string and the three of the return
    assert load_tool().code_lines(source) == 8


def test_prints_each_file_and_the_total(tmp_path, capsys):
    a, b = tmp_path / "a.py", tmp_path / "b.py"
    a.write_text("x = 1\n")
    b.write_text("y = 2\nz = 3\n")
    assert load_tool().main([str(a), str(b)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split() for line in lines] == [["1", str(a)], ["2", str(b)], ["3", "total"]]
