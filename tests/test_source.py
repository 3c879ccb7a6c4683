"""Properties of the package source itself."""

import ast
from importlib.resources import files


def test_no_assert_statements():
    """Invariant failures raise `InvariantError`: a bare `assert` would reach
    the user as `AssertionError`, and `python -O` would skip it."""
    found = []
    for path in sorted(files("singlocus").iterdir()):
        if not path.name.endswith(".py"):
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=path.name)
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert not found
