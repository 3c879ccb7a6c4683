"""Properties of the package source itself."""

import ast
from importlib.resources import files


def _modules():
    """(file name, syntax tree) of each module of the package."""
    for path in sorted(files("singlocus").iterdir()):
        if path.name.endswith(".py"):
            yield path.name, ast.parse(path.read_text(encoding="utf-8"),
                                       filename=path.name)


def test_no_assert_statements():
    """Invariant failures raise `InvariantError`: a bare `assert` would reach
    the user as `AssertionError`, and `python -O` would skip it."""
    found = []
    for name, tree in _modules():
        found += [f"{name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert not found


def test_every_import_is_used():
    """Each module uses every name it imports, so a helper that a change
    stops calling leaves no import behind.  `__init__.py` is skipped: its
    imports are the package's public names."""
    found = []
    for name, tree in _modules():
        if name == "__init__.py":
            continue
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    imported[bound] = node.lineno
            elif (isinstance(node, ast.ImportFrom)
                  and node.module != "__future__"):
                for alias in node.names:
                    imported[alias.asname or alias.name] = node.lineno
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        found += [f"{name}:{line} {bound}"
                  for bound, line in sorted(imported.items())
                  if bound not in used]
    assert not found


def test_one_completion_loop():
    """Only `groebner.py` imports `heappop`, or reads it off `heapq`: the
    pair heap of a completion lives in `_Engine.buchberger` alone, for
    rings and modules, so no second completion loop grows beside it."""
    found = []
    for name, tree in _modules():
        if name == "groebner.py":
            continue
        found += [f"{name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.ImportFrom)
                  and any(alias.name == "heappop" for alias in node.names)
                  or isinstance(node, ast.Attribute)
                  and node.attr == "heappop"]
    assert not found


def test_one_span_step():
    """`arrangement.py` reads `linalg.rref` at one site, `_span_up`: the
    planes, the lines and every higher rank of the lattice come from one
    span step, so no second grouping loop grows beside it."""
    found = [f"arrangement.py:{node.lineno}"
             for name, tree in _modules() if name == "arrangement.py"
             for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr == "rref"]
    assert len(found) == 1, found


def test_no_library_substitution():
    """No module calls `Polynomial.substitute`: a change of coordinates is
    one product of coefficient rows with a matrix."""
    found = [f"{name}:{node.lineno}" for name, tree in _modules()
             for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr == "substitute"]
    assert not found
