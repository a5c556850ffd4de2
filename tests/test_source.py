"""Rules on the package's source: a check that guards a result raises an
error, never an ``assert`` statement, which ``python -O`` strips out."""

import ast
from pathlib import Path

import nodalcert


def test_the_package_has_no_assert_statement():
    found = []
    for path in sorted(Path(nodalcert.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []
