import ast
from pathlib import Path

import qconstel


def test_all_names_resolve_without_duplicates():
    assert len(qconstel.__all__) == len(set(qconstel.__all__))
    missing = [name for name in qconstel.__all__ if not hasattr(qconstel, name)]
    assert missing == []


def test_star_import_gives_exactly_all():
    namespace: dict = {}
    exec("from qconstel import *", namespace)
    assert sorted(k for k in namespace if k != "__builtins__") == sorted(qconstel.__all__)


def test_every_public_name_has_a_production_caller():
    # a Name or Attribute node in another part of src/qconstel must refer to
    # each public name: strings, docstrings, imports, __init__ and the name's
    # own definition do not count, so code only the tests call stays out
    trees = [ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(Path(qconstel.__file__).parent.glob("*.py"))
             if path.name != "__init__.py"]

    def called(name):
        for tree in trees:
            own = {id(node) for top in tree.body
                   if isinstance(top, (ast.FunctionDef, ast.ClassDef)) and top.name == name
                   for node in ast.walk(top)}
            if any(id(node) not in own
                   and (isinstance(node, ast.Name) and node.id == name
                        or isinstance(node, ast.Attribute) and node.attr == name)
                   for node in ast.walk(tree)):
                return True
        return False

    assert [name for name in qconstel.__all__ if not called(name)] == []
