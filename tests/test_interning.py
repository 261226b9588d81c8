"""Interned Weyl elements: identity is equality, so one element has one
object per datum, whatever the order of the questions asked or the threads
that ask them."""

import sys
import threading

import pytest
from hypothesis import given, strategies as st

from modp_hecke import affine_weyl as aw
from modp_hecke import hecke as hk
from modp_hecke import oracle as orc
from modp_hecke import root_datum as rd
from modp_hecke import satake as sat
from reference import from_finite


def test_a_constructed_element_is_the_interned_one():
    d = rd.preset("A2")
    s1, s2 = d.simple_reflections
    direct = aw.AffineWeylElement(d, d.coweight_from_x_coords((-1, 0)), s1 * s2)
    assert direct is aw.parse_element(d, "t[-1,0]*s1*s2")
    assert direct is aw.translation(d, direct.translation) * from_finite(d, s1 * s2)
    assert aw.AffineWeylElement(d, d.zero_coweight(), d.weyl_identity) is aw.identity(d)
    for cls in (aw.AffineWeylElement, rd.FiniteWeylElement, aw.Facet, aw.DoubleCosetIndex,
                sat.LeviDatum):
        assert "__eq__" not in vars(cls)


def test_facets_and_classes_are_interned():
    d = rd.RootDatum(rd.preset("A2").cartan_datum)
    ball = aw.length_ball(d, 3)
    for indices in ((), (2,), (0, 2), (1, 2)):
        f = aw.Facet(d, indices)
        assert f is aw.facet(d, indices) and f is aw.Facet(d, reversed(indices * 2))
        for w in ball:
            idx = aw.double_coset_rep(w, f)
            assert idx is aw.DoubleCosetIndex(f, idx.rep)
            for member in aw.enumerate_lower_interval(idx):
                assert member is aw.double_coset_rep(member.rep, f)


def test_levis_are_interned():
    d = rd.RootDatum(rd.preset("A2").cartan_datum)
    assert sat.levi_datum(d, (1, 0, 1)) is sat.levi_datum(d, (0, 1))
    assert sat.minimal_levi(d) is sat.levi_datum(d, ())
    assert sat.LeviDatum(d, range(2)) is sat.levi_datum(d, (0, 1))
    assert list(d.levis) == [(0, 1), ()]


def test_an_invalid_levi_raises_and_stores_nothing():
    d = rd.RootDatum(rd.preset("A2").cartan_datum)
    sat.minimal_levi(d)
    before = dict(d.levis)
    for j_m in ((2,), (0, 5), (-1,)):
        with pytest.raises(sat.SatakeError):
            sat.levi_datum(d, j_m)
        assert d.levis == before


def test_an_invalid_facet_raises_and_stores_nothing():
    d = rd.RootDatum(rd.preset("A2").cartan_datum)
    aw.iwahori(d)
    before = dict(d.facets)
    for indices in ((0, 1, 2), (3,), (-1, 1)):
        with pytest.raises(rd.RootDatumError):
            aw.Facet(d, indices)
        assert d.facets == before


def test_elements_of_two_data_never_compare_equal():
    cartan = rd.preset("A2").cartan_datum
    a, b = rd.RootDatum(cartan), rd.RootDatum(cartan)
    for text in ("e", "s1", "t[-1,-1]*s2"):
        u, v = aw.parse_element(a, text), aw.parse_element(b, text)
        assert u != v and u.finite != v.finite
        assert hash(u) == hash(v) and len({u, v}) == 2


def test_facets_levis_and_classes_hash_alike_across_data():
    # Hashes read no address, so set and dict orders are the same on every
    # datum; equality stays identity, so two data never share an object.
    cartan = rd.preset("A2").cartan_datum
    a, b = rd.RootDatum(cartan), rd.RootDatum(cartan)
    for indices in ((), (1,), (0, 2), (1, 2)):
        fa, fb = aw.facet(a, indices), aw.facet(b, indices)
        assert hash(fa) == hash(fb) and fa != fb
        ca = aw.double_coset_rep(aw.parse_element(a, "t[-1,-1]*s2"), fa)
        cb = aw.double_coset_rep(aw.parse_element(b, "t[-1,-1]*s2"), fb)
        assert hash(ca) == hash(cb) and ca != cb
    for j_m in ((), (0,), (0, 1)):
        la, lb = sat.levi_datum(a, j_m), sat.levi_datum(b, j_m)
        assert hash(la) == hash(lb) and la != lb


def test_a_product_across_data_raises_before_and_after_memoizing():
    cartan = rd.preset("A2").cartan_datum
    a, b = rd.RootDatum(cartan), rd.RootDatum(cartan)
    foreign = aw.parse_element(b, "t[-1,-1]*s2")
    u = aw.translation(a, a.coweight_from_x_coords((2, -3)))
    with pytest.raises(rd.RootDatumError):
        u * foreign
    # The element of a with foreign's hash is now a memoized right factor of u.
    own = aw.parse_element(a, "t[-1,-1]*s2")
    for v in (own, *aw.simple_system(a).elements.values()):
        u * v
        v * u
    assert hash(own) == hash(foreign)
    for x, y in ((u, foreign), (foreign, u), (own, foreign)):
        with pytest.raises(rd.RootDatumError):
            x * y


def test_interning_is_race_free():
    # Four threads form the same new elements of fresh data at once; with
    # the thread switch forced every microsecond, a lookup-then-insert
    # intern table hands out two objects for one element in most data.  The
    # class-product memo stores the same way, so each pair has one witness.
    cartan = rd.preset("A3").cartan_datum
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(40):
            d = rd.RootDatum(cartan)
            barrier = threading.Barrier(4)
            found = []

            def work():
                barrier.wait(timeout=30)
                w0 = rd.closure([d.weyl_identity],
                                lambda w: (w * s for s in d.simple_reflections))
                ball = aw.length_ball(d, 2)
                facets = [aw.Facet(d, indices) for indices in ((), (1,), (0, 2), (1, 2, 3))]
                levis = [sat.levi_datum(d, j_m) for j_m in ((), (0,), (2, 1), (0, 1, 2))]
                classes = [aw.double_coset_rep(w, f) for f in facets for w in ball]
                iwahori = classes[:len(ball)]
                found.append((list(w0), ball, facets, levis, classes,
                              [hk.convolve_phi_classes(a, b)[1] for a in iwahori for b in iwahori]))

            threads = [threading.Thread(target=work) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
            assert not any(t.is_alive() for t in threads) and len(found) == 4
            finite = [x for w0, *_ in found for x in w0]
            affine = [x for _, ball, *_ in found for x in ball]
            facets = [f for _, _, fs, *_ in found for f in fs]
            levis = [m for *_, ms, _, _ in found for m in ms]
            classes = [c for *_, cs, _ in found for c in cs]
            assert len({id(x) for x in finite}) == len({x.matrix for x in finite}) == 24
            assert len({id(x) for x in affine}) == len({(x.translation, x.finite.matrix)
                                                        for x in affine})
            assert len({id(f) for f in facets}) == len({f.indices for f in facets}) == 4
            assert len({id(m) for m in levis}) == len({m.j_m for m in levis}) == 4
            assert len({id(c) for c in classes}) == len({
                (c.facet.indices, c.rep.translation, c.rep.finite.matrix) for c in classes})
            witnesses = zip(*(ws for *_, ws in found))  # the four threads' witnesses of each pair
            assert all(len(set(map(id, same))) == 1 for same in witnesses)
    finally:
        sys.setswitchinterval(old)


def test_step_table_numbering_is_race_free():
    # Four threads embed the phi classes in the generic algebra of one fresh
    # datum at once, then multiply, each starting at its own quarter of the
    # classes and of the pairs; a number handed out twice, or a second step
    # table made for the datum, which numbers in another order, would give
    # wrong products.
    cartan = rd.preset("A2").cartan_datum

    def phis(d, k=0):
        f = aw.iwahori(d)
        ball = aw.length_ball(d, 2)
        start = len(ball) * k // 4
        phi = {w: orc.phi_to_generic(aw.DoubleCosetIndex(f, w))
               for w in ball[start:] + ball[:start]}
        return [phi[w] for w in ball]

    def products(phi, order):
        return {(i, j): sorted((aw.element_to_string(w), c)
                               for w, c in (phi[i] * phi[j]).coeffs.items())
                for i, j in order}

    first = phis(rd.RootDatum(cartan))
    pairs = [(i, j) for i in range(len(first)) for j in range(len(first))]
    expected = products(first, pairs)
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            d = rd.RootDatum(cartan)
            barrier = threading.Barrier(4)
            found = []

            def work(k):
                barrier.wait(timeout=30)
                phi = phis(d, k)
                start = len(pairs) * k // 4
                found.append(products(phi, pairs[start:] + pairs[:start]))

            threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
            assert not any(t.is_alive() for t in threads) and len(found) == 4
            assert all(expected[key] == got for out in found for key, got in out.items())
            table = d.generic_steps
            assert [table._index[w] for w in table.elements] == list(range(len(table.elements)))
    finally:
        sys.setswitchinterval(old)


# -- warm and fresh data agree under any interleaving ------------------------------

_KINDS = ("length", "reduced_word", "lower_set", "bruhat_leq", "double_coset_rep",
          "satake_phi", "product", "convolve")
_ELEMENT = st.tuples(st.lists(st.integers(-1, 1), min_size=2, max_size=2),
                     st.lists(st.integers(0, 2), max_size=4))
_QUERY = st.tuples(st.sampled_from(_KINDS), _ELEMENT, _ELEMENT, st.booleans(),
                   st.sampled_from((2, 3)))


def _element(d, coords, word):
    sys_ = aw.simple_system(d)
    w = aw.translation(d, d.coweight_from_x_coords(coords[:d.dim]))
    for i in word:
        w = w * sys_.elements[sys_.indices[i % len(sys_.indices)]]
    return w


def _answer(d, query):
    """One query, answered in strings and numbers so that data compare."""
    kind, a, b, special, p = query
    u, w = _element(d, *a), _element(d, *b)
    f = aw.hyperspecial(d) if special else aw.iwahori(d)
    if kind == "length":
        return aw.length(w)
    if kind == "reduced_word":
        word, tau = aw.reduced_word(w)
        return word, aw.element_to_string(tau)
    if kind == "lower_set":
        return sorted(map(aw.element_to_string, aw.lower_set(w)))
    if kind == "bruhat_leq":
        return aw.bruhat_leq(u, w)
    if kind == "double_coset_rep":
        return aw.element_to_string(aw.double_coset_rep(w, f).rep)
    if kind == "product":
        return aw.element_to_string(u * w)
    if kind == "convolve":
        pair = aw.double_coset_rep(u, f), aw.double_coset_rep(w, f)
        return hk.convolve_phi_classes(*pair)[1].to_json()
    return sat.satake_phi(aw.double_coset_rep(w, f), sat.minimal_levi(d), f, p).to_json()


@given(st.sampled_from(("A1:ad", "A2", "C2", "G2")),
       st.lists(_QUERY, min_size=1, max_size=6).flatmap(
           lambda qs: st.tuples(st.just(qs), st.permutations(range(len(qs))))))
def test_warm_and_fresh_data_agree_in_any_order(spec, case):
    queries, order = case
    warm = rd.preset(spec)
    fresh = rd.RootDatum(warm.cartan_datum, spec_string=warm.spec_string)
    on_warm = {k: _answer(warm, q) for k, q in enumerate(queries)}
    on_fresh = {k: _answer(fresh, queries[k]) for k in order}
    assert on_fresh == on_warm
