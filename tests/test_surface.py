"""No public function or method of ``chd`` goes uncalled.

Every public top-level function and every public method of a top-level
class in ``src/chd`` must be named somewhere in the package, the demos or
the benchmark harness, as a ``Name`` or an ``Attribute``, unless it is on
``KEPT``.  The match is by name alone, so it is lenient: a name that also
belongs to a local or a numpy attribute passes.  The files are parsed, not
imported.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# public names with no caller in those files that the acceptance suite, the
# demos' readers or the paper still need
KEPT = {
    "adjacency_walk_relation",
    "as_rational",
    "equals_mod_pi",
    "laplacian_float",
    "monomial_transform",
    "odd_union_obstruction",
}


def _parse(pattern, skip):
    return [
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for path in sorted(ROOT.glob(pattern))
        if not skip(path.name)
    ]


@pytest.fixture(scope="module")
def package():
    return _parse("src/chd/*.py", lambda name: name == "__init__.py")


@pytest.fixture(scope="module")
def used(package):
    trees = package + _parse("demos/*.py", lambda name: False)
    trees += _parse("benchmark/*.py", lambda name: name.startswith("test_"))
    names = set()
    for node in (node for tree in trees for node in ast.walk(tree)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


@pytest.fixture(scope="module")
def defined(package):
    """The public top-level functions and methods of top-level classes."""
    names = set()
    for node in (node for tree in package for node in tree.body):
        for item in node.body if isinstance(node, ast.ClassDef) else [node]:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not item.name.startswith("_"):
                names.add(item.name)
    return names


def test_every_public_name_has_a_caller(defined, used):
    assert sorted(defined - used - KEPT) == []


def test_kept_names_are_defined_and_uncalled(defined, used):
    # a kept name that is deleted or gains a caller leaves the list
    assert sorted(KEPT - defined) == [] and sorted(KEPT & used) == []
