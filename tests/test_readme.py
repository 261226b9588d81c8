"""README.md's examples run as written: the library quick tour, and each CLI
line whose comment gives its output (`# -> ...`)."""

import ast
import os
import re
import shlex

from modp_hecke import cli

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def _readme() -> str:
    with open(README, encoding="utf-8") as fh:
        return fh.read()


def test_library_quick_tour_runs():
    # Every bare expression that gives a bool, such as `witness.result is
    # prod.rep`, must give True.
    tour = re.search(r"## Library quick tour\n\n```python\n(.*?)```", _readme(), re.S)
    namespace = {}
    for stmt in ast.parse(tour.group(1)).body:
        if isinstance(stmt, ast.Expr):
            value = eval(compile(ast.Expression(stmt.value), README, "eval"), namespace)
            assert value is not False, ast.unparse(stmt)
        else:
            exec(compile(ast.Module([stmt], []), README, "exec"), namespace)
    assert str(namespace["prod"].rep) == "t[-2,-2]"


def test_readme_cli_lines_print_their_comments(capsys):
    lines = re.findall(r"^modp-hecke (.*?)\s+# -> (.*)$", _readme(), re.M)
    assert [shlex.split(line)[:2] for line, _ in lines] == [
        ["weyl", "demazure"], ["weyl", "length"], ["weyl", "leq"], ["hecke", "pointcount"]]
    for line, expected in lines:
        assert cli.main(shlex.split(line)) == 0, line
        assert capsys.readouterr().out == expected + "\n", line
