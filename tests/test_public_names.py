"""Every public function, class and method that src/sulab defines is read
somewhere in src/sulab or bench/: a helper that only its own unit test
calls fails here. No module imports another's private (underscore) names.

A read is a name or an attribute loaded in code, found by parsing each file
with ast; a mention in a docstring or a comment does not count.
"""

import ast
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[1]

# Tier-1's paper claims read the first four, and save_points writes the
# dataset files that load_points reads
_KEPT = {"collapsed_score", "naive_empirical_score", "log_sum_exp",
         "in_supervision_region_batch", "save_points"}


def _public_definitions():
    """(file:qualified name, name) of each top-level function and class of
    src/sulab, and of each method of those classes."""
    for path in sorted((_ROOT / "src" / "sulab").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            yield f"{path.name}:{node.name}", node.name
            if isinstance(node, ast.ClassDef):
                for method in node.body:
                    if isinstance(method, ast.FunctionDef):
                        yield f"{path.name}:{node.name}.{method.name}", method.name


def _names_read():
    paths = [*(_ROOT / "src" / "sulab").glob("*.py"),
             *(_ROOT / "bench").glob("*.py")]
    read = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif (isinstance(node, ast.Attribute)
                  and isinstance(node.ctx, ast.Load)):
                read.add(node.attr)
    return read


def test_every_public_name_has_a_reader():
    read = _names_read()
    unread = [where for where, name in _public_definitions()
              if not name.startswith("_") and name not in read | _KEPT]
    assert unread == []


def test_every_kept_name_is_still_defined_and_unread():
    # a kept name that gains a reader, or goes, leaves the list
    defined = {name for _, name in _public_definitions()}
    assert _KEPT <= defined
    assert not _KEPT & _names_read()


def test_no_private_name_crosses_modules():
    # a module's _names are its own: no relative `from .x import _name`
    crossing = []
    for path in sorted((_ROOT / "src" / "sulab").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level:
                crossing += [f"{path.name} <- {node.module}.{alias.name}"
                             for alias in node.names
                             if alias.name.startswith("_")
                             and not alias.name.startswith("__")]
    assert crossing == []
