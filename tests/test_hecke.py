import itertools
import random
import sys
import tracemalloc

import pytest

from modp_hecke import affine_weyl as aw
from modp_hecke import hecke as hk
from modp_hecke import satake as sat
from modp_hecke.root_datum import CapExceeded, CartanDatum, RootDatum, preset
from reference import (EXPLICIT_LATTICES, alternating_data, cls, finite_facets, fresh_datum,
                       poly_mul, scale, wf_elements)


def test_prime_validation():
    d = preset("A1")
    f = aw.iwahori(d)
    e = cls(d, f, "e")
    # 561 is a Carmichael number, 3215031751 a strong pseudoprime to the bases
    # 2, 3, 5 and 7.
    for p in (0, 1, 4, 561, 3215031751, 1_000_000_007 ** 2):
        with pytest.raises(hk.HeckeError):
            hk.phi_basis_element(e, p)
    # Beyond the bound below which the primality test is exact, and beyond
    # the range of a float.
    for p in (10 ** 30 + 57, 10 ** 400 + 1):
        with pytest.raises(hk.HeckeError, match=str(hk._MR_BOUND)):
            hk.phi_basis_element(e, p)
    for p in (2, 41, 43, 1_000_000_007):
        assert hk.phi_basis_element(e, p).prime == p


def test_unknown_basis_is_rejected():
    d = preset("A1")
    f = aw.iwahori(d)
    with pytest.raises(hk.HeckeError, match="unknown basis 'kl'"):
        hk.HeckeElement(f, 3, "kl", {cls(d, f, "e"): 1})


def test_a_class_of_another_facet_is_rejected():
    # Same datum, same rep, but the class is the hyperspecial facet's
    d = preset("A1")
    f = aw.iwahori(d)
    with pytest.raises(hk.HeckeError, match="coefficient indexed by a foreign facet"):
        hk.HeckeElement(f, 3, "phi", {cls(d, aw.hyperspecial(d), "e"): 1})


def test_hecke_repr():
    # the sorted canonical strings of the classes, as the hecke_mixed digest reads them
    d = preset("A2")
    f = aw.iwahori(d)
    a = hk.HeckeElement(f, 3, "phi", {cls(d, f, "s1"): 1, cls(d, f, "t[-1,-1]"): 2})
    assert repr(a) == "phi[s1] + 2*phi[t[-1,-1]]"
    assert repr(a.convert("indicator")).startswith("2*1[s1*s2] + 2*1[s1*s2*s1] + 2*1[s2] + ")
    assert repr(hk.HeckeElement(f, 3, "phi", {})) == "0"


def test_phi_expansion_examples():
    d = preset("A1")
    f = aw.iwahori(d)
    e = cls(d, f, "e")
    assert hk.phi_basis_element(e, 3).convert("indicator").coeffs == {e: 1}
    w = cls(d, f, "w[0,1]")
    ind = hk.phi_basis_element(w, 3).convert("indicator")
    assert set(ind.coeffs.values()) == {1}
    assert {c.length for c in ind.coeffs} == {0, 1, 2}
    assert len(ind.coeffs) == 4


def test_unitriangular_conversion_roundtrip():
    rng = random.Random(5)
    for spec, fidx in (("A1", ()), ("A2", (1, 2)), ("A1", (1,))):
        d = preset(spec)
        f = aw.facet(d, fidx)
        classes = sorted({aw.double_coset_rep(w, f) for w in aw.length_ball(d, 4)},
                         key=lambda c: aw.element_sort_key(c.rep))
        for p in (2, 5):
            for _ in range(10):
                coeffs = {c: rng.randrange(p) for c in rng.sample(classes, 3)}
                el = hk.HeckeElement(f, p, "phi", coeffs)
                back = el.convert("indicator").convert("phi")
                assert back == el
                el2 = hk.HeckeElement(f, p, "indicator", coeffs)
                assert el2.convert("phi").convert("indicator") == el2


def test_convolve_unit():
    d = preset("A2")
    f = aw.facet(d, (1, 2))
    one = hk.phi_basis_element(aw.double_coset_rep(aw.identity(d), f), 3)
    for text in ("e", "s0", "t[-1,-1]"):
        el = hk.phi_basis_element(cls(d, f, text), 3)
        assert hk.convolve(one, el) == el
        assert hk.convolve(el, one) == el


def test_convolve_phi_classes_a1():
    d = preset("A1")
    f = aw.iwahori(d)
    s0, s1, s01 = (cls(d, f, t) for t in ("s0", "s1", "w[0,1]"))
    prod, wit = hk.convolve_phi_classes(s0, s1)
    assert prod == s01
    assert wit.replay() == prod
    prod2, wit2 = hk.convolve_phi_classes(s01, s1)
    assert prod2 == s01
    assert wit2.replay() == prod2


def test_convolve_bilinear_example():
    # (phi_s0 + phi_s1) * phi_s1 = phi_s0s1 + phi_s1 at p = 3
    d = preset("A1")
    f = aw.iwahori(d)
    s0, s1, s01 = (cls(d, f, t) for t in ("s0", "s1", "w[0,1]"))
    lhs = hk.convolve(hk.HeckeElement(f, 3, "phi", {s0: 1, s1: 1}),
                      hk.phi_basis_element(s1, 3))
    assert lhs == hk.HeckeElement(f, 3, "phi", {s01: 1, s1: 1})
    # terms that meet: s1 * s1 = e * s1 = s1, so (phi_s1 + phi_e) * phi_s1 is
    # 2 phi_s1, which cancels at p = 2
    e = cls(d, f, "e")
    for p, text in ((2, "0"), (3, "2*phi[s1]")):
        a = hk.phi_basis_element(s1, p) + hk.phi_basis_element(e, p)
        assert repr(hk.convolve(a, hk.phi_basis_element(s1, p))) == text


def test_convolve_mismatch_errors():
    d = preset("A1")
    f, g = aw.iwahori(d), aw.facet(d, (1,))
    a = hk.phi_basis_element(cls(d, f, "s0"), 3)
    b = hk.phi_basis_element(cls(d, g, "s0"), 3)
    with pytest.raises(hk.HeckeError):
        hk.convolve(a, b)
    c = hk.phi_basis_element(cls(d, f, "s0"), 5)
    with pytest.raises(hk.HeckeError):
        hk.convolve(a, c)


def test_associativity_small():
    for spec, fidx in (("A1", ()), ("A2", (1, 2))):
        d = preset(spec)
        f = aw.facet(d, fidx)
        classes = sorted({aw.double_coset_rep(w, f) for w in aw.length_ball(d, 3)},
                         key=lambda c: aw.element_sort_key(c.rep))
        for a, b, c in itertools.product(classes, repeat=3):
            ab, _ = hk.convolve_phi_classes(a, b)
            bc, _ = hk.convolve_phi_classes(b, c)
            left, _ = hk.convolve_phi_classes(ab, c)
            right, _ = hk.convolve_phi_classes(a, bc)
            assert left == right


def test_special_facet_commutativity():
    for spec in ("A1", "A2", "C2"):
        d = preset(spec)
        f = aw.hyperspecial(d)
        classes = sorted({aw.double_coset_rep(w, f) for w in aw.length_ball(d, 4)},
                         key=lambda c: aw.element_sort_key(c.rep))
        for a, b in itertools.combinations(classes, 2):
            ab, _ = hk.convolve_phi_classes(a, b)
            ba, _ = hk.convolve_phi_classes(b, a)
            assert ab == ba


def test_witness_replay_random():
    rng = random.Random(17)
    d = preset("A2:ad")
    f = aw.hyperspecial(d)
    classes = sorted({aw.double_coset_rep(w, f) for w in aw.length_ball(d, 4)},
                     key=lambda c: aw.element_sort_key(c.rep))
    for _ in range(25):
        a, b = rng.choice(classes), rng.choice(classes)
        prod, wit = hk.convolve_phi_classes(a, b)
        assert wit.replay() == prod


@pytest.mark.parametrize("forged", [("folded", "result"), ("folded",), ("result",)])
def test_forged_witness_does_not_replay(forged):
    # A2:ad has nontrivial Omega, so tau1, tau2 and the conjugated word1 all
    # take part; the check must not rest on `assert`, which `python -O` drops.
    d = preset("A2:ad")
    f = aw.facet(d, (1, 2))
    _, wit = hk.convolve_phi_classes(cls(d, f, "t[0,1]*s1"), cls(d, f, "t[1,0]"))
    with pytest.raises(hk.HeckeError, match="not the recorded e"):
        wit._replace(**dict.fromkeys(forged, aw.identity(d))).replay()


# The witness of the first `hecke multiply --witness` line in CI.
CI_WITNESS = {"facet": [1, 2], "folded": "t[2,-1]", "result": "t[-1,-1]",
              "tau1": "t[0,1]*s2*s1", "tau2": "t[1,0]*s1*s2", "w1": "t[-1,0]",
              "w2": "t[0,-1]", "word1": [2, 0], "word2": [2, 1]}


def test_convolve_phi_classes_forms_no_string(monkeypatch):
    d = RootDatum(preset("A2:ad").cartan_datum)
    f = aw.facet(d, (1, 2))
    a, b = cls(d, f, "t[0,1]*s1"), cls(d, f, "t[1,0]")

    def refuse(w):
        raise AssertionError("convolve_phi_classes formed a string")

    real = aw.element_to_string
    for mod in list(sys.modules.values()):
        if getattr(mod, "element_to_string", None) is real:
            monkeypatch.setattr(mod, "element_to_string", refuse)
    prod, wit = hk.convolve_phi_classes(a, b)
    assert wit.replay() is prod
    monkeypatch.undo()
    assert wit.to_json() == CI_WITNESS


def test_witness_is_an_immutable_hashable_record():
    d = preset("A2:ad")
    f = aw.facet(d, (1, 2))
    a, b = cls(d, f, "t[0,1]*s1"), cls(d, f, "t[1,0]")
    _, wit = hk.convolve_phi_classes(a, b)
    _, again = hk.convolve_phi_classes(a, b)
    assert wit == again and hash(wit) == hash(again)
    assert wit._fields == ("facet", "w1", "w2", "tau1", "tau2", "word1", "word2",
                           "folded", "result")
    for field in ("folded", "word1", "facet"):
        with pytest.raises(AttributeError):
            setattr(wit, field, getattr(again, field))
    assert wit.to_json() == CI_WITNESS


def test_witness_fields_are_the_interned_elements():
    d = preset("A2:ad")
    f = aw.facet(d, (1, 2))
    a, b = cls(d, f, "t[0,1]*s1"), cls(d, f, "t[1,0]")
    prod, wit = hk.convolve_phi_classes(a, b)
    assert wit.w1 is a.rep and wit.w2 is b.rep
    assert wit.result is prod.rep
    assert wit.folded is aw.demazure_product(d, wit.word1 + wit.word2)
    assert wit.tau1 is aw.omega_part(a.rep)
    assert wit.tau2 is aw.omega_part(b.rep)


# t[-1,0] * t[0,-1] at the hyperspecial facet of each datum of
# reference.alternating_data: A2 and B2 on one explicit lattice, both with
# nontrivial Omega there.  The A2 witness is the one of the CI line above.
ALTERNATING_WITNESSES = (CI_WITNESS, {
    "facet": [1, 2], "folded": "t[4,-1]*s1*s2*s1", "result": "t[-1,-1]",
    "tau1": "t[1,0]*s1*s2*s1", "tau2": "e", "w1": "t[-1,0]", "w2": "t[0,-1]",
    "word1": [0, 2, 0], "word2": [2, 1, 2, 0]})


def test_class_product_memo_lives_and_dies_with_its_datum():
    # The memo is the left class's, so no datum reads a freed datum's pairs.
    wrong = 0
    for k, d in alternating_data(100):
        f = aw.hyperspecial(d)
        prod, wit = hk.convolve_phi_classes(cls(d, f, "t[-1,0]"), cls(d, f, "t[0,-1]"))
        if (aw.element_to_string(prod.rep), wit.to_json()) != (
                "t[-1,-1]", ALTERNATING_WITNESSES[k]):
            wrong += 1
    assert wrong == 0


def test_class_product_memo_keeps_the_witness_and_the_facet_check():
    d = RootDatum(preset("A2:ad").cartan_datum)
    f, g = aw.facet(d, (1, 2)), aw.iwahori(d)
    a, b = cls(d, f, "t[0,1]*s1"), cls(d, f, "t[1,0]")
    prod, wit = hk.convolve_phi_classes(a, b)
    again, wit2 = hk.convolve_phi_classes(a, b)
    assert again is prod and wit2 is wit and wit.to_json() == CI_WITNESS
    # b's representative is its own Iwahori class: same rep, another facet.
    foreign = aw.double_coset_rep(b.rep, g)
    assert foreign.rep is b.rep
    with pytest.raises(hk.HeckeError, match="facet mismatch"):
        hk.convolve_phi_classes(a, foreign)
    with pytest.raises(hk.HeckeError, match="facet mismatch"):
        hk.convolve_phi_classes(foreign, b)
    assert list(a._products) == [b] and not foreign._products


def test_class_product_work_counts():
    # Deterministic work of ten class products with repeats on a fresh A2
    # datum: interned elements, affine product-memo entries and class-memo
    # entries after one pass, and a second pass adds to none of them.
    d = RootDatum(CartanDatum((("A", 2),), "sc"))
    f = aw.hyperspecial(d)
    c = [cls(d, f, t) for t in ("e", "t[-1,-1]", "t[-1,-2]", "t[-2,-1]", "t[-2,-2]")]
    pairs = [(1, 2), (2, 1), (1, 1), (3, 4), (4, 3), (1, 2), (4, 4), (0, 3), (3, 4), (1, 1)]

    def counts():
        return (len(d._affine_cache),
                sum(len(w._products) for w in d._affine_cache.values()),
                sum(len(k._products) for k in set(f._classes.values())))

    first = [hk.convolve_phi_classes(c[i], c[j]) for i, j in pairs]
    pinned = counts()
    assert pinned == (71, 115, 7)
    assert [hk.convolve_phi_classes(c[i], c[j]) for i, j in pairs] == first
    assert counts() == pinned


def test_point_count_polynomials():
    d = preset("A1")
    iwa = aw.iwahori(d)
    assert hk.point_count_polynomial(cls(d, iwa, "e")) == (1,)
    assert hk.point_count_polynomial(cls(d, iwa, "s0")) == (1, 1)  # |P^1| = 1 + q
    hyp = aw.facet(d, (1,))
    assert hk.point_count_polynomial(cls(d, hyp, "t[-1]")) == (1, 1, 1)


def test_a_class_made_from_any_element_is_canonical():
    # DoubleCosetIndex(f, w) is double_coset_rep(w, f): a class made from a
    # non-canonical element is the class of its canonical representative,
    # and its point count is that of the class.
    d = RootDatum(preset("A2").cartan_datum)
    f = aw.hyperspecial(d)
    w = aw.parse_element(d, "t[-1,-1]*s1")
    idx = aw.DoubleCosetIndex(f, w)
    assert idx is aw.double_coset_rep(w, f)
    assert idx.rep is aw.parse_element(d, "t[-1,-1]")
    assert hk.point_count_polynomial(idx) == (1, 1, 2, 2, 1)


def test_point_count_constant_term_one():
    for spec, fidx in (("A1", ()), ("A1", (1,)), ("A2", (1, 2)), ("C2", (1, 2)),
                       ("A1:ad", (1,))):
        d = preset(spec)
        f = aw.facet(d, fidx)
        for w in aw.length_ball(d, 4):
            coeffs = hk.point_count_polynomial(aw.double_coset_rep(w, f))
            assert coeffs[0] == 1


@pytest.mark.parametrize("spec, facet, text, call, size, interned", [
    ("E7", aw.hyperspecial, "s0", "point count", 127, 1325),
    ("A2", aw.iwahori, "t[-10,-10]", "classes below", 1740, 1742),
    ("E6", aw.hyperspecial, "t[-2,0,0,0,0,0]", "classes below", 5, 1475)],
    ids=("E7-s0-cells", "A2-iwahori-classes", "E6-classes"))
def test_lifting_walk_work_counts(spec, facet, text, call, size, interned):
    # Deterministic work of one lifting walk on a fresh datum: the elements
    # interned, forming the class included.  A change that does more work
    # fails here; one that does less updates the pin.
    d = RootDatum(preset(spec).cartan_datum)
    idx = cls(d, facet(d), text)
    if call == "point count":
        assert sum(hk.point_count_polynomial(idx)) == size
    else:
        assert len(aw.enumerate_lower_interval(idx)) == size
    assert len(d._affine_cache) == interned


def test_point_count_degree_is_dimension():
    d = preset("A2")
    f = aw.facet(d, (1, 2))
    for w in aw.length_ball(d, 4):
        idx = aw.double_coset_rep(w, f)
        coeffs = hk.point_count_polynomial(idx)
        assert len(coeffs) - 1 == idx.length


def test_json_wire_roundtrip():
    d = preset("A1")
    f = aw.iwahori(d)
    el = hk.HeckeElement(f, 3, "phi",
                         {cls(d, f, "s0"): 2, cls(d, f, "w[0,1]"): 1})
    # each term names its class by the canonical representative
    doc = el.to_json()
    assert (doc["facet"], doc["prime"], doc["basis"]) == ([], 3, "phi")
    back = {aw.DoubleCosetIndex(f, aw.parse_element(d, t["rep"])): t["coeff"]
            for t in doc["terms"]}
    assert all(aw.double_coset_rep(idx.rep, f) == idx for idx in back)
    assert hk.HeckeElement(f, 3, "phi", back) == el


def test_poly_string():
    assert hk.poly_string((1, 1)) == "1 + q"
    assert hk.poly_string((1, 0, 2)) == "1 + 2*q^2"
    assert hk.poly_string(()) == "0"


def _fp_combination_cases():
    """(build(coeffs, prime), keys, error type, operands that must not add)
    for each F_p-combination class."""
    d = preset("A2")
    iw, hs = aw.iwahori(d), aw.hyperspecial(d)
    classes = sorted({aw.double_coset_rep(w, iw) for w in aw.length_ball(d, 2)},
                     key=lambda c: aw.element_sort_key(c.rep))[:5]
    lev, lev1 = sat.minimal_levi(d), sat.levi_datum(d, (0,))
    zs = sat.enumerate_antidominant(d, 8)[:5]
    ys = [aw.translation(d, z) for z in zs]
    hecke = lambda c, p=3: hk.HeckeElement(iw, p, "phi", c)
    levi = lambda c, p=3: sat.LeviHeckeElement(lev, iw, p, c)
    monoid = lambda c, p=3: sat.MonoidAlgebraElement(d, p, c)
    return [
        (hecke, classes, hk.HeckeError,
         [hk.HeckeElement(iw, 3, "indicator", {classes[0]: 1}),  # basis
          hk.HeckeElement(hs, 3, "phi", {}),  # facet
          hecke({}, 5), levi({})]),
        (levi, ys, sat.SatakeError,
         [sat.LeviHeckeElement(lev1, iw, 3, {}), sat.LeviHeckeElement(lev, hs, 3, {}),
          levi({}, 5), monoid({})]),
        (monoid, zs, sat.SatakeError,
         [sat.MonoidAlgebraElement(preset("A2:ad"), 3, {}), monoid({}, 5), hecke({})]),
    ]


@pytest.mark.parametrize("case", range(3), ids=["hecke", "levi_hecke", "monoid"])
def test_fp_combination_laws(case):
    build, keys, error, mismatched = _fp_combination_cases()[case]
    rng = random.Random(case)
    draw = lambda: build({k: rng.randrange(-4, 5) for k in rng.sample(keys, 3)})
    for _ in range(20):
        a, b, c = draw(), draw(), draw()
        assert a + b == b + a and hash(a + b) == hash(b + a)
        assert (a + b) + c == a + (b + c)
        k = rng.randrange(-3, 7)
        assert scale(a + b, k) == scale(a, k) + scale(b, k)
        assert not scale(a, 3).coeffs and scale(a, 3) == build({})
        assert build(dict(a.coeffs)) == a and hash(build(dict(a.coeffs))) == hash(a)
    a = build({keys[0]: 1})
    for other in mismatched:
        assert a != other
        with pytest.raises(error, match="operand mismatch"):
            a + other


@pytest.mark.parametrize("spec, facet", [("G2", (1, 2)), ("C2", (0, 2)), ("A2:ad", (1,))],
                         ids=("G2-1,2", "C2-0,2", "A2:ad-1"))
def test_the_hecke_path_does_not_enumerate_w_f(spec, facet, closure_results):
    # A fresh datum, so no memo answers: products, witnesses, basis changes
    # and point counts all work on coset minima, and no closure holds W_f.
    # (These W_f are small, so a closure of classes or cosets may reach |W_f|.)
    d = RootDatum(preset(spec).cartan_datum)
    f = aw.facet(d, facet)
    closure_results.clear()  # the datum's root closure
    x, y = cls(d, f, "t[-1,0]*s1"), cls(d, f, "t[0,-1]")
    prod, witness = hk.convolve_phi_classes(x, y)
    assert witness.replay() is prod
    a = hk.phi_basis_element(x, 3)
    b = hk.HeckeElement(f, 3, "indicator", {y: 1}).convert("phi")
    assert hk.convolve(a.convert("indicator"), b).convert("phi") == hk.convolve(a, b)
    hk.point_count_polynomial(prod)
    w_f = set(wf_elements(f))
    assert closure_results and not any(w_f <= r for r in closure_results)


def test_the_hecke_path_does_not_build_the_w_interval(monkeypatch):
    # s0 at the E7 hyperspecial facet has two classes below it, and a W
    # interval past the default cap; a fresh datum, so no memo answers.
    d = RootDatum(preset("E7").cartan_datum)
    f = aw.hyperspecial(d)

    def refuse(*args, **kwargs):
        raise AssertionError("the Hecke path built a W interval")

    monkeypatch.setattr(aw, "lower_set", refuse)
    prod = hk.convolve(hk.phi_basis_element(cls(d, f, "s0"), 2),
                       hk.phi_basis_element(cls(d, f, "e"), 2))
    assert prod.to_json()["terms"] == [{"rep": "t[-2,-2,-3,-4,-3,-2,-1]", "coeff": 1}]
    assert prod.convert("indicator").to_json()["terms"] == [
        {"rep": "e", "coeff": 1}, {"rep": "t[-2,-2,-3,-4,-3,-2,-1]", "coeff": 1}]
    # The cells of the Schubert scheme of s0: e and the 126 roots of E7.
    assert hk.point_count_polynomial(cls(d, f, "s0")) == (
        1, 1, 1, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 6, 6, 7, 7, 6, 6, 6, 6, 5, 5, 4,
        4, 3, 3, 2, 2, 1, 1, 1, 1)


def _point_count_by_interval(idx):
    """The count over the W interval: the u = u^f in lower_set(idx.rep)."""
    coeffs = [0] * (idx.length + 1)
    for u in aw.lower_set(idx.rep):
        if aw.min_coset_rep(u, idx.facet) == u:
            coeffs[aw.length(u)] += 1
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


@pytest.mark.parametrize("spec, radius", [
    ("A1", 4), ("A1:ad", 4), ("A2", 4), ("A2:ad", 4), ("C2", 4), ("C2:ad", 4), ("G2", 4),
    ("B3", 3), ("A3", 3), ("A1xA1", 3)])
def test_point_count_matches_the_w_interval(spec, radius):
    # Every class of the length ball at every finite facet, on a fresh datum,
    # so the lifting walk and the interval share no memo.
    d = RootDatum(preset(spec).cartan_datum)
    ball = aw.length_ball(d, radius)
    for f in finite_facets(d):
        for idx in {aw.double_coset_rep(w, f) for w in ball}:
            assert hk.point_count_polynomial(idx) == _point_count_by_interval(idx), idx


def _length_poly(elements):
    coeffs = [0] * (max(map(aw.length, elements)) + 1)
    for v in elements:
        coeffs[aw.length(v)] += 1
    return tuple(coeffs)


@pytest.mark.parametrize("spec, radius", [
    ("A1", 4), ("A1:ad", 4), ("A2", 4), ("A2:ad", 4), ("C2", 4), ("G2", 4),
    ("A3", 3), ("B3", 3), *((doc, 3) for doc in EXPLICIT_LATTICES)])
def test_point_count_times_the_facet_polynomial_is_the_flag_count(spec, radius):
    # The Schubert scheme of a class, fibred by the W_f-cells of the facet's
    # flag variety, is the closed Schubert variety of w_max, the longest
    # element of W_f rep W_f, in the affine flag variety: point count times
    # P_f(q) = sum_{v <= w_max} q^l(v), P_f the length polynomial of W_f.
    # The interval is `lower_set`, not the lifting walk.
    d = fresh_datum(spec)
    ball = aw.length_ball(d, radius)
    for f in finite_facets(d):
        wf = wf_elements(f)
        p_f = _length_poly(wf)
        for idx in {aw.double_coset_rep(w, f) for w in ball}:
            w_max = max({a * idx.rep * b for a in wf for b in wf}, key=aw.length)
            assert poly_mul(hk.point_count_polynomial(idx), p_f) == \
                _length_poly(aw.lower_set(w_max)), idx


def test_point_count_cap_bounds_the_cells():
    # A2 hyperspecial t[-2,-1]: three classes below it and ten cells.  The cap
    # bounds the cells, which bounds the classes too, as each class has a
    # cell; the boundary does not move with the memo.
    d = RootDatum(preset("A2").cartan_datum)
    idx = cls(d, aw.hyperspecial(d), "t[-2,-1]")
    for _ in range(2):
        with pytest.raises(CapExceeded, match="Schubert cells reached 3 elements"):
            hk.point_count_polynomial(idx, cap=2)
        with pytest.raises(CapExceeded, match="Schubert cells reached 10 elements, "
                                              "over the limit 9"):
            hk.point_count_polynomial(idx, cap=9)
        assert hk.point_count_polynomial(idx, cap=10) == (1, 1, 2, 2, 2, 1, 1)


def test_point_count_over_the_cap_allocates_nothing_per_length():
    # t[-10**7] has length 2 * 10**7; a coefficient list sized by it (160 MB)
    # must not be built, nor a reduced word formed, before the cap raises.
    d = RootDatum(preset("A1").cartan_datum)
    idx = cls(d, aw.hyperspecial(d), f"t[{-10 ** 7}]")
    tracemalloc.start()
    try:
        with pytest.raises(CapExceeded, match="Schubert cells reached 16 elements"):
            hk.point_count_polynomial(idx, cap=15)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 ** 6, peak
    assert idx.rep._word is None
