import ast
from collections import defaultdict
from pathlib import Path

import entlqg


def test_every_exported_name_resolves_once():
    names = entlqg.__all__
    assert len(names) == len(set(names))
    assert [n for n in names if not hasattr(entlqg, n)] == []


def test_no_test_helper_is_defined_twice():
    # an oracle, printed matrix or chi set that two modules share lives in oracles.py
    homes = defaultdict(list)
    for path in sorted(Path(__file__).parent.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            else:   # the names an assignment binds; none for other statements
                names = [n.id for t in getattr(node, "targets", []) for n in ast.walk(t)
                         if isinstance(n, ast.Name)]
            for name in names:
                if not name.startswith(("test_", "Test")):
                    homes[name].append(path.name)
    assert {name: files for name, files in homes.items() if len(files) > 1} == {}


def test_no_test_body_is_written_twice():
    # two tests with one body check one behaviour; the docstring does not count
    owners = defaultdict(list)
    for path in sorted(Path(__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.FunctionDef) and node.name.startswith("test_"):
                body = node.body[1:] if ast.get_docstring(node) else node.body
                owners[ast.dump(ast.Module(body=body, type_ignores=[]))].append(
                    f"{path.name}::{node.name}")
    assert [names for names in owners.values() if len(names) > 1] == []
