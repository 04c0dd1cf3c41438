"""Import hygiene of the package, read from the source with ast: no module
imports a name it never uses, the package exports exactly what its __init__
imports, and only cli knows the report format."""

import ast
import os

import pytest

import nonsmooth

PACKAGE = os.path.dirname(nonsmooth.__file__)
MODULES = sorted(f for f in os.listdir(PACKAGE) if f.endswith(".py"))


def parse(filename):
    with open(os.path.join(PACKAGE, filename), encoding="utf-8") as fh:
        return ast.parse(fh.read(), filename)


def imported_names(tree):
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(a.asname or a.name for a in node.names)
    return names


def exported_names(tree):
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            return {elt.value for elt in node.value.elts}
    return set()


def used_names(tree):
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


@pytest.mark.parametrize("filename", MODULES)
def test_every_import_is_used(filename):
    tree = parse(filename)
    unused = imported_names(tree) - used_names(tree) - exported_names(tree)
    assert not unused, "%s imports unused names %s" % (filename, sorted(unused))


def test_init_exports_exactly_its_imports():
    tree = parse("__init__.py")
    assert exported_names(tree) == imported_names(tree)


@pytest.mark.parametrize("filename", MODULES)
def test_no_class_serializes_itself(filename):
    tree = parse(filename)
    owners = sorted(node.name for node in ast.walk(tree)
                    if isinstance(node, ast.ClassDef)
                    and any(isinstance(item, ast.FunctionDef)
                            and item.name == "to_obj" for item in node.body))
    assert not owners, "%s: %s define to_obj; the report format lives in cli" % (
        filename, owners)


@pytest.mark.parametrize("filename", [f for f in MODULES if f != "cli.py"])
def test_only_cli_imports_json(filename):
    tree = parse(filename)
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            modules.add(node.module.split(".")[0])
    assert "json" not in modules, "%s imports json" % filename
