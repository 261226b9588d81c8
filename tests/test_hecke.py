import itertools
import random

import pytest

from modp_hecke import affine_weyl as aw
from modp_hecke import hecke as hk
from modp_hecke.root_datum import preset


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
