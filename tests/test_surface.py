"""The library surface: every function, method and property defined in
src/semivar is read somewhere in src/semivar, exported in
``semivar.__all__``, or listed in UNREAD with the reason it stays.

The scan is by name: a definition counts as read when its bare name is
loaded as a name or an attribute anywhere in the package, so two
definitions that share a name share their readers.
"""

from __future__ import annotations

import ast
from pathlib import Path

import semivar

SRC = Path(semivar.__file__).parent

#: the definitions nothing in src/semivar reads, with the reason each stays;
#: the perfbench layers can go once the benchmark stops timing them
UNREAD = {
    "cli._Parser.error": "argparse's hook for a bad command line",
    "congruences.principal_congruence": "a layer perfbench times",
    "orders.variant_idempotent_leq": "a layer perfbench times",
    "orders.variant_leq": "a layer perfbench times",
    "report.Report.dumps": "a layer perfbench times",
}


def _definitions(node, prefix):
    """{qualified name: bare name} of each def under node, nested ones too."""
    out = {}
    for child in ast.iter_child_nodes(node):
        name = prefix
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            name = f"{prefix}.{child.name}"
            if not isinstance(child, ast.ClassDef):
                out[name] = child.name
        out.update(_definitions(child, name))
    return out


def _scan():
    """(the package's definitions as {qualified name: bare name}, the names
    it loads as a name or an attribute)."""
    defined, loaded = {}, set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        defined.update(_definitions(tree, path.stem))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loaded.add(node.attr)
    return defined, loaded


def test_every_definition_has_a_reader_or_a_reason():
    defined, loaded = _scan()
    unread = {
        qualified for qualified, name in defined.items()
        if not (name.startswith("__") and name.endswith("__"))  # the data model calls them
        and name not in loaded and name not in semivar.__all__
    }
    assert unread == UNREAD.keys()

