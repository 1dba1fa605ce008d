"""The package ships only code that it uses itself."""

import ast
import pathlib
from dataclasses import fields

import periodsplat
from periodsplat.trainer import TrainConfig

TREES = {path.name: ast.parse(path.read_text())
         for path in pathlib.Path(periodsplat.__file__).parent.glob("*.py")}


def test_every_definition_is_referenced():
    """Every module-level function and class of the package is named
    somewhere in the package outside its own definition: as a name, an
    attribute or an imported name."""
    references = [(getattr(node, "id", None) or getattr(node, "attr", None)
                   or getattr(node, "name", None), node)
                  for tree in TREES.values() for node in ast.walk(tree)
                  if isinstance(node, (ast.Name, ast.Attribute, ast.alias))]
    unused = []
    for module, tree in sorted(TREES.items()):
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                own = {id(inner) for inner in ast.walk(node)}
                if not any(name == node.name and id(ref) not in own for name, ref in references):
                    unused.append(f"{module}:{node.name}")
    assert unused == []


def test_every_constant_is_read():
    """Every module-level constant of the package (a name bound by a
    module-level assignment, dunders aside) is read somewhere in the
    package, as a name or an attribute."""
    read = {getattr(node, "id", None) or node.attr for tree in TREES.values()
            for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)}
    unread = [f"{module}:{target.id}" for module, tree in sorted(TREES.items())
              for node in tree.body if isinstance(node, (ast.Assign, ast.AnnAssign))
              for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
              if isinstance(target, ast.Name) and not target.id.startswith("__")
              and target.id not in read]
    assert unread == []


def test_every_config_field_is_read():
    """Every TrainConfig field is read as an attribute somewhere in the
    package outside TrainConfig.validate and TrainConfig.desk_preset, so no
    knob is only checked or only set."""
    config_class = next(node for node in TREES["trainer.py"].body
                        if isinstance(node, ast.ClassDef) and node.name == "TrainConfig")
    skipped = {id(inner) for method in config_class.body
               if isinstance(method, ast.FunctionDef) and method.name in ("validate", "desk_preset")
               for inner in ast.walk(method)}
    read = {node.attr for tree in TREES.values() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
            and id(node) not in skipped}
    assert [f.name for f in fields(TrainConfig) if f.name not in read] == []


def test_every_method_is_read():
    """Every non-dunder method or property of a package class is read as an
    attribute somewhere in the package outside its own body."""
    unread = []
    for module, tree in sorted(TREES.items()):
        for cls in (node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)):
            for method in cls.body:
                if not isinstance(method, ast.FunctionDef) or method.name.startswith("__"):
                    continue
                own = {id(inner) for inner in ast.walk(method)}
                if not any(isinstance(node, ast.Attribute) and node.attr == method.name
                           and isinstance(node.ctx, ast.Load) and id(node) not in own
                           for other in TREES.values() for node in ast.walk(other)):
                    unread.append(f"{module}:{cls.name}.{method.name}")
    assert unread == []


def test_every_dataclass_field_is_read():
    """Every field of a package dataclass is read as an attribute somewhere
    in the package, so no record carries a value that nothing uses."""
    read = {node.attr for tree in TREES.values() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    unread = []
    for module, tree in sorted(TREES.items()):
        for cls in (node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)):
            if not any(ast.unparse(d).startswith("dataclass") for d in cls.decorator_list):
                continue
            unread += [f"{module}:{cls.name}.{item.target.id}" for item in cls.body
                       if isinstance(item, ast.AnnAssign) and item.target.id not in read]
    assert unread == []
