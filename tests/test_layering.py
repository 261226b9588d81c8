"""Static checks on the library's source, read with `ast`: nothing under test
is imported.

Every function and method defined at the top level of a `src/` module, or in
a class there, must be named somewhere in `src/` (the CLI included) or in
`bench/`, outside its own body, or stand on `ALLOWED` with the reason it
stays.  A definition that only the tests call belongs in `tests/reference.py`.
A reference is a name or an attribute; in `bench/` it may also be a string,
as `bench/tracer.py` names what it wraps.  Imports and `__all__` are not
references, and dunder methods are called by the language.

The oracles must stay independent of what they check: each entry point of
`oracle.py` may name, outside that module, only what the `oracle.py`
docstring says it shares (`ORACLE_MAY_REACH`).
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = ROOT / "src" / "modp_hecke"
BENCH = ROOT / "bench"

ALLOWED = {
    "CartanDatum._make": "the named-tuple hook that `_replace` calls, kept so the "
                         "checks of `__new__` run on a replaced datum too",
    "pack": "the packed Z[q] codec with `unpack`, documented in README",
}

# What each oracle entry point may name outside `oracle.py`, mirroring that
# module's docstring: the step table's `length` and `simple_system` (its affine
# product is an operator, which the scan does not see), `lower_set`, the class
# constructor, and `HeckeElement` for a result in the phi basis; besides
# those, the types its signatures name and the errors it raises.  Never
# `bruhat_leq`, `demazure_product` or `HeckeElement.convert`.
ORACLE_TYPES = {"AffineWeylElement", "CapExceeded", "DoubleCosetIndex", "Facet", "RootDatum",
                "RootDatumError"}
STEP_TABLE = {"length", "lower_set", "simple_system"}
ORACLE_MAY_REACH = {
    "GenericHeckeElement.__mul__": ORACLE_TYPES | STEP_TABLE | {"identity"},
    "phi_to_generic": ORACLE_TYPES | STEP_TABLE | {"facet", "is_iwahori"},  # Iwahori only
    "generic_to_phi": ORACLE_TYPES | STEP_TABLE | {"HeckeElement"},
    "q0_mod_p": ORACLE_TYPES,
    "brute_bruhat": ORACLE_TYPES | {"length", "lower_set"},
    # the alcove-walk count reads only the datum's pairing and the element
    "brute_length": ORACLE_TYPES | {"act", "pair", "translation"},
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


def oracle_reach(library: dict) -> dict:
    """{entry point of ORACLE_MAY_REACH: the names it reaches that a function,
    method or class outside `oracle.py` defines}, given {path: source} of the
    library.  The walk follows names inside `oracle.py` by name: a name or
    attribute that a function or method there defines leads into its body,
    and the name of a class there into its `__init__`."""
    oracle = str(LIBRARY / "oracle.py")
    outside = set()
    for path, text in library.items():
        if path != oracle:
            tree = ast.parse(text)
            outside |= {node.name for _, node in _definitions(tree)}
            outside |= {node.name for node in tree.body if isinstance(node, ast.ClassDef)}
    tree = ast.parse(library[oracle])
    bodies = {}
    for _, node in _definitions(tree):
        bodies.setdefault(node.name, []).append(node)
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            bodies[node.name] = [m for m in node.body
                                 if isinstance(m, ast.FunctionDef) and m.name == "__init__"]
    entries = dict(_definitions(tree))
    out = {}
    for entry in ORACLE_MAY_REACH:
        todo, seen, reached = [entries[entry]], set(), set()
        while todo:
            node = todo.pop()
            if node not in seen:
                seen.add(node)
                for name in _references(node, strings=False):
                    todo.extend(bodies.get(name, ()))
                    if name in outside:
                        reached.add(name)
        out[entry] = reached
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


def test_each_oracle_entry_point_reaches_only_what_the_oracle_docstring_lists():
    reach = oracle_reach(_sources(LIBRARY))
    assert {entry: names - ORACLE_MAY_REACH[entry] for entry, names in reach.items()} == {
        entry: set() for entry in ORACLE_MAY_REACH}


@pytest.mark.parametrize("entry, anchor, plant, name", [
    ("phi_to_generic", "    table = RightSteps.of(idx.facet.datum)\n",
     "    aw.bruhat_leq(idx.rep, idx.rep)\n", "bruhat_leq"),
    ("generic_to_phi", '    return HeckeElement(f, p, "phi", {DoubleCosetIndex(',
     '    HeckeElement(f, p, "phi", {}).convert("indicator")\n', "convert"),
])
def test_a_planted_oracle_dependency_fails_the_scan(entry, anchor, plant, name):
    library = _sources(LIBRARY)
    oracle = str(LIBRARY / "oracle.py")
    assert library[oracle].count(anchor) == 1
    library[oracle] = library[oracle].replace(anchor, plant + anchor)
    assert name in oracle_reach(library)[entry] - ORACLE_MAY_REACH[entry]
