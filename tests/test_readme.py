"""The README's code runs as written."""

import ast
import io
import re
import tokenize
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _quick_tour() -> str:
    text = README.read_text()
    match = re.search(r"^## Quick tour\n.*?^```python\n(.*?)^```", text, re.M | re.S)
    assert match, "README has no Quick tour python block"
    return match.group(1)


def _literal_comments(source: str) -> dict[int, object]:
    """{line: value} for each trailing comment that is a Python literal."""
    out = {}
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.COMMENT:
            try:
                out[tok.start[0]] = ast.literal_eval(tok.string[1:].strip())
            except (ValueError, SyntaxError):
                pass  # prose
    return out


def test_quick_tour_runs_and_shows_its_values():
    source = _quick_tour()
    expected = _literal_comments(source)
    namespace: dict = {}
    checked = set()
    for stmt in ast.parse(source).body:
        if stmt.lineno in expected:
            assert isinstance(stmt, ast.Expr), ast.unparse(stmt)
            code = compile(ast.Expression(stmt.value), "README.md", "eval")
            assert eval(code, namespace) == expected[stmt.lineno], ast.unparse(stmt)
            checked.add(stmt.lineno)
        else:
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
    assert checked == set(expected) and len(checked) >= 2
