import itertools
import random
import sys

import pytest

from modp_hecke import affine_weyl as aw
from modp_hecke import hecke as hk
from modp_hecke import satake as sat
from modp_hecke.root_datum import CapExceeded, RootDatum, preset
from reference import wf_elements


def cls(datum, facet, text):
    return aw.double_coset_rep(aw.parse_element(datum, text), facet)


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


def test_point_count_polynomials():
    d = preset("A1")
    iwa = aw.iwahori(d)
    assert hk.point_count_polynomial(cls(d, iwa, "e")) == (1,)
    assert hk.point_count_polynomial(cls(d, iwa, "s0")) == (1, 1)  # |P^1| = 1 + q
    hyp = aw.facet(d, (1,))
    assert hk.point_count_polynomial(cls(d, hyp, "t[-1]")) == (1, 1, 1)


def test_point_count_constant_term_one():
    for spec, fidx in (("A1", ()), ("A1", (1,)), ("A2", (1, 2)), ("C2", (1, 2)),
                       ("A1:ad", (1,))):
        d = preset(spec)
        f = aw.facet(d, fidx)
        for w in aw.length_ball(d, 4):
            coeffs = hk.point_count_polynomial(aw.double_coset_rep(w, f))
            assert coeffs[0] == 1


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
        assert (a + b).scale(k) == a.scale(k) + b.scale(k)
        assert a.scale(3).is_zero() and a.scale(3) == build({})
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
    x, y = cls(d, f, "t[-1,0]*s1"), cls(d, f, "t[0,-1]")
    prod, witness = hk.convolve_phi_classes(x, y)
    assert witness.replay() is prod
    a = hk.phi_basis_element(x, 3)
    b = hk.HeckeElement(f, 3, "indicator", {y: 1}).convert("phi")
    assert hk.convolve(a.convert("indicator"), b).convert("phi") == hk.convolve(a, b)
    hk.point_count_polynomial(prod)
    w_f = set(wf_elements(f))
    assert not any(w_f <= r for r in closure_results)


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
    ("A1", 4), ("A1:ad", 4), ("A2", 4), ("A2:ad", 4), ("C2", 4), ("G2", 4),
    ("B3", 3), ("A3", 3)])
def test_point_count_matches_the_w_interval(spec, radius):
    # A fresh datum, so the class walk and the interval share no memo.
    d = RootDatum(preset(spec).cartan_datum)
    indices = aw.simple_system(d).indices
    ball = aw.length_ball(d, radius)
    for f in {aw.facet(d, J) for r in range(len(indices))
              for J in itertools.combinations(indices, r)}:
        for idx in {aw.double_coset_rep(w, f) for w in ball}:
            assert hk.point_count_polynomial(idx) == _point_count_by_interval(idx), idx


def test_point_count_cap_bounds_the_cells():
    # A2 hyperspecial t[-2,-1]: three classes below it and ten cells; the cap
    # bounds both, and the boundary does not move with the memo.
    d = RootDatum(preset("A2").cartan_datum)
    idx = cls(d, aw.hyperspecial(d), "t[-2,-1]")
    for _ in range(2):
        with pytest.raises(CapExceeded, match="lower interval reached 3 elements"):
            hk.point_count_polynomial(idx, cap=2)
        with pytest.raises(CapExceeded, match="Schubert cells reached 10 elements, "
                                              "over the limit 9"):
            hk.point_count_polynomial(idx, cap=9)
        assert hk.point_count_polynomial(idx, cap=10) == (1, 1, 2, 2, 2, 1, 1)
