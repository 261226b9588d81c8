"""Interned Weyl elements: identity is equality, so one element has one
object per datum, whatever the order of the questions asked or the threads
that ask them."""

import sys
import threading

from hypothesis import given, strategies as st

from modp_hecke import affine_weyl as aw
from modp_hecke import root_datum as rd
from modp_hecke import satake as sat


def test_a_constructed_element_is_the_interned_one():
    d = rd.preset("A2")
    s1, s2 = d.simple_reflections
    direct = aw.AffineWeylElement(d, d.coweight_from_x_coords((-1, 0)), s1 * s2)
    assert direct is aw.parse_element(d, "t[-1,0]*s1*s2")
    assert direct is aw.translation(d, direct.translation) * aw.from_finite(d, s1 * s2)
    assert aw.AffineWeylElement(d, d.zero_coweight(), d.weyl_identity) is aw.identity(d)
    for cls in (aw.AffineWeylElement, rd.FiniteWeylElement):
        assert "__eq__" not in vars(cls)


def test_elements_of_two_data_never_compare_equal():
    cartan = rd.preset("A2").cartan_datum
    a, b = rd.RootDatum(cartan), rd.RootDatum(cartan)
    for text in ("e", "s1", "t[-1,-1]*s2"):
        u, v = aw.parse_element(a, text), aw.parse_element(b, text)
        assert u != v and u.finite != v.finite
        assert hash(u) == hash(v) and len({u, v}) == 2


def test_interning_is_race_free():
    # Four threads form the same new elements of fresh data at once; with
    # the thread switch forced every microsecond, a lookup-then-insert
    # intern table hands out two objects for one element in most data.
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
                found.append((list(w0), aw.length_ball(d, 2)))

            threads = [threading.Thread(target=work) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
            assert not any(t.is_alive() for t in threads) and len(found) == 4
            finite = [x for w0, _ in found for x in w0]
            affine = [x for _, ball in found for x in ball]
            assert len({id(x) for x in finite}) == len({x.matrix for x in finite}) == 24
            assert len({id(x) for x in affine}) == len({(x.translation, x.finite.matrix)
                                                        for x in affine})
    finally:
        sys.setswitchinterval(old)


# -- warm and fresh data agree under any interleaving ------------------------------

_KINDS = ("length", "reduced_word", "lower_set", "bruhat_leq", "double_coset_rep",
          "satake_phi")
_ELEMENT = st.tuples(st.lists(st.integers(-1, 1), min_size=2, max_size=2),
                     st.lists(st.integers(0, 2), max_size=4))
_QUERY = st.tuples(st.sampled_from(_KINDS), _ELEMENT, _ELEMENT, st.integers(1, 30),
                   st.booleans(), st.sampled_from((2, 3)))


def _element(d, coords, word):
    sys_ = aw.simple_system(d)
    w = aw.translation(d, d.coweight_from_x_coords(coords[:d.dim]))
    for i in word:
        w = w * sys_.elements[sys_.indices[i % len(sys_.indices)]]
    return w


def _answer(d, query):
    """One query, answered in strings and numbers so that data compare."""
    kind, a, b, cap, special, p = query
    u, w = _element(d, *a), _element(d, *b)
    f = aw.hyperspecial(d) if special else aw.iwahori(d)
    if kind == "length":
        return aw.length(w)
    if kind == "reduced_word":
        word, tau = aw.reduced_word(w)
        return word, aw.element_to_string(tau)
    if kind == "lower_set":
        try:
            return sorted(map(aw.element_to_string, aw.lower_set(w, cap)))
        except aw.CapExceeded:
            return "over the cap"
    if kind == "bruhat_leq":
        return aw.bruhat_leq(u, w)
    if kind == "double_coset_rep":
        return aw.element_to_string(aw.double_coset_rep(w, f).rep)
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
