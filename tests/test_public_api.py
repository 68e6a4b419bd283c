import ast
import re
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


def test_every_oracle_has_a_caller():
    # an oracle is reached from a test module, or from an oracle that is
    here = Path(__file__).parent
    defs = {node.name: node for node in ast.parse((here / "oracles.py").read_text()).body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))}

    def names(tree):
        return {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}

    reached = set().union(*(names(ast.parse(path.read_text()))
                            for path in here.glob("test_*.py"))) & defs.keys()
    todo = list(reached)
    while todo:
        found = names(defs[todo.pop()]) & defs.keys() - reached
        reached |= found
        todo += found
    assert sorted(defs.keys() - reached) == []


def test_every_public_name_has_a_user():
    # a name stays in __all__ when the CLI, a demo or README uses it, when the
    # benchmark reads it as entlqg.<name>, or when it is one of the types and
    # errors that only the signatures of public functions name
    root = Path(__file__).parent.parent
    users = "".join(path.read_text() for path in (root / "src/entlqg/cli.py", root / "README.md",
                                                  *sorted((root / "demos").glob("*.py"))))
    bench = "".join(path.read_text() for path in sorted((root / "perfbench").glob("*.py")))
    types = ("ClosedLoop", "LmiReport", "MeasurementModel", "NumericalError", "PlantModel",
             "StabilityError", "UnphysicalStateError")
    assert all(isinstance(getattr(entlqg, name), type) for name in types)
    assert [name for name in entlqg.__all__ if name not in types
            and not re.search(rf"\b{name}\b", users)
            and not re.search(rf"\bentlqg\.{name}\b", bench)] == []


def test_readme_names_existing_tests():
    # each test_*.py::Name[::name] that README.md names is a class or function there
    here = Path(__file__).parent
    refs = re.findall(r"(test_\w+\.py)::(\w+)(?:::(\w+))?",
                      (here.parent / "README.md").read_text())
    assert refs
    missing = []
    for module, name, member in refs:
        top = {node.name: node for node in ast.parse((here / module).read_text()).body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
        members = {node.name for node in getattr(top.get(name), "body", [])
                   if isinstance(node, ast.FunctionDef)}
        if name not in top or (member and member not in members):
            missing.append("::".join(filter(None, (module, name, member))))
    assert missing == []
