"""The package ships only code that it uses itself."""

import ast
import pathlib

import periodsplat


def test_every_definition_is_referenced():
    """Every module-level function and class of the package is named
    somewhere in the package outside its own definition: as a name, an
    attribute or an imported name."""
    trees = {path.name: ast.parse(path.read_text())
             for path in pathlib.Path(periodsplat.__file__).parent.glob("*.py")}
    references = [(getattr(node, "id", None) or getattr(node, "attr", None)
                   or getattr(node, "name", None), node)
                  for tree in trees.values() for node in ast.walk(tree)
                  if isinstance(node, (ast.Name, ast.Attribute, ast.alias))]
    unused = []
    for module, tree in sorted(trees.items()):
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                own = {id(inner) for inner in ast.walk(node)}
                if not any(name == node.name and id(ref) not in own for name, ref in references):
                    unused.append(f"{module}:{node.name}")
    assert unused == []
