"""Static checks on the library's source, read with `ast`: nothing under test
is imported.

Every function and method defined at the top level of a `src/` module, or in
a class there, must be named somewhere in `src/` (the CLI included) or in
`bench/`, outside its own body, or stand on `ALLOWED` with the reason it
stays.  A definition that only the tests call belongs in `tests/reference.py`.
A reference is a name or an attribute; in `bench/` it may also be a string,
as `bench/tracer.py` names what it wraps.  Imports and `__all__` are not
references, and dunder methods are called by the language.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = ROOT / "src" / "modp_hecke"
BENCH = ROOT / "bench"

ALLOWED = {
    "CartanDatum._make": "the named-tuple hook that `_replace` calls, kept so the "
                         "checks of `__new__` run on a replaced datum too",
    "pack": "the packed Z[q] codec with `unpack`, documented in README",
}


def _references(node, strings: bool) -> Counter:
    out = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out[n.id] += 1
        elif isinstance(n, ast.Attribute):
            out[n.attr] += 1
        elif strings and isinstance(n, ast.Constant) and isinstance(n.value, str):
            out[n.value] += 1
    return out


def _definitions(tree):
    """(qualified name, def node) of the module's functions and methods."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for m in node.body:
                if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield f"{node.name}.{m.name}", m


def unreferenced(library: dict, bench: dict) -> list:
    """The qualified names of the library definitions that nothing names but
    their own body, given {path: source} of the library and of the bench."""
    trees = {path: ast.parse(text) for path, text in library.items()}
    total = Counter()
    for tree in trees.values():
        total += _references(tree, strings=False)
    for text in bench.values():
        total += _references(ast.parse(text), strings=True)
    out = []
    for path, tree in sorted(trees.items()):
        for qual, node in _definitions(tree):
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            if total[name] - _references(node, strings=False)[name] <= 0:
                out.append(qual)
    return out


def _sources(folder: Path) -> dict:
    return {str(p): p.read_text() for p in sorted(folder.glob("*.py"))}


def test_every_library_function_has_a_caller_outside_the_tests():
    # and an entry whose definition gained a caller, or went away, leaves ALLOWED
    assert sorted(unreferenced(_sources(LIBRARY), _sources(BENCH))) == sorted(ALLOWED)


def test_a_planted_test_only_method_fails_the_scan():
    library = _sources(LIBRARY)
    hecke = str(LIBRARY / "hecke.py")
    anchor = "    def _check_operand(self, other):\n"
    assert library[hecke].count(anchor) == 1
    library[hecke] = library[hecke].replace(
        anchor, "    def is_zero(self) -> bool:\n        return not self.coeffs\n\n" + anchor)
    assert "FpCombination.is_zero" in unreferenced(library, _sources(BENCH))
