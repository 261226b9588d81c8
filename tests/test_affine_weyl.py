import itertools
import random
import time

import pytest

from modp_hecke import affine_weyl as aw
from modp_hecke import oracle
from modp_hecke import satake as sat
from modp_hecke.root_datum import RootDatum, RootDatumError, from_json, preset
from reference import (all_reduced_words, demazure_mult, finite_facets, from_finite,
                       in_w_m, w0_elements, wf_elements)


def els(datum, *strings):
    return [aw.parse_element(datum, s) for s in strings]


def test_translation_multiplication():
    d = preset("A2")
    t1 = aw.translation(d, (2, -1))
    t2 = aw.translation(d, (-1, 2))
    assert (t1 * t2).translation == (1, 1)
    assert (t1 * t2) == (t2 * t1)


def test_simple_reflections_are_involutions():
    for spec in ("A1", "A2", "C2", "A1:ad"):
        d = preset(spec)
        sys = aw.simple_system(d)
        for i in sys.indices:
            s = sys.simple(i)
            assert (s * s).is_identity()
            assert aw.length(s) == 1


def test_a1_rotation_length():
    d = preset("A1")
    s0, s1 = els(d, "s0", "s1")
    rot = s0 * s1
    cur = aw.identity(d)
    for n in range(1, 6):
        cur = cur * rot
        assert aw.length(cur) == 2 * n


def test_affine_node_translation_part():
    for spec in ("A1", "A2", "C2", "G2:ad"):
        d = preset(spec)
        sys = aw.simple_system(d)
        s0 = sys.simple(sys.affine_indices[0])
        theta = d.highest_roots[0]
        assert s0.translation == d.coroot(theta)
        assert s0.finite == d.reflection(theta)


def test_length_closed_form_vs_alcove_oracle():
    for spec in ("A1", "A2", "C2", "A1:ad", "A2:ad"):
        d = preset(spec)
        for w in aw.length_ball(d, 5):
            assert aw.length(w) == oracle.brute_length(w), aw.element_to_string(w)


def test_length_translations_oracle():
    for spec in ("A2", "C2"):
        d = preset(spec)
        for c1 in range(-3, 4):
            for c2 in range(-3, 4):
                t = aw.translation(d, d.coweight_from_x_coords((c1, c2)))
                assert aw.length(t) == oracle.brute_length(t)


def test_reduced_word_roundtrip():
    for spec in ("A1", "A2", "A1:ad"):
        d = preset(spec)
        sys = aw.simple_system(d)
        for w in aw.length_ball(d, 4):
            word, tau = aw.reduced_word(w)
            assert len(word) == aw.length(w)
            assert aw.length(tau) == 0
            out = aw.identity(d)
            for i in word:
                out = out * sys.simple(i)
            assert out * tau == w


def test_reduced_word_of_omega_element():
    d = preset("A1:ad")
    t = aw.translation(d, (1,))
    word, tau = aw.reduced_word(t)
    assert len(word) == 1 and aw.length(tau) == 0 and not tau.is_identity()


def _omega_by_right_descents(d, z):
    cur = aw.translation(d, z)
    sys = aw.simple_system(d)
    while (lc := aw.length(cur)) > 0:
        cur = next(x for x in (cur * sys.elements[i] for i in sys.indices) if aw.length(x) < lc)
    return cur


@pytest.mark.parametrize("spec", ["A1", "A1:ad", "A2:ad", "B2:ad", "G2", "A1xA2:ad"])
def test_omega_element_is_read_on_either_side(spec):
    # W = W_af x| Omega, so stripping right descents off t_z reaches the same
    # length-zero element as the left-descent reduced word.
    d = preset(spec)
    for pairings in itertools.product(range(-2, 3), repeat=d.n):
        if d.in_lattice(pairings):
            assert aw.omega_element(d, pairings) == _omega_by_right_descents(d, pairings)


def test_omega_action_is_diagram_automorphism():
    # A1:ad swaps the two nodes; A2:ad rotates the three nodes
    d = preset("A1:ad")
    tau = aw.omega_element(d, (1,))
    assert aw.omega_conjugate(tau, 0) == 1
    assert aw.omega_conjugate(tau, 1) == 0
    a2 = preset("A2:ad")
    tau2 = aw.omega_element(a2, (1, 0))
    perm = tuple(aw.omega_conjugate(tau2, i) for i in (0, 1, 2))
    assert sorted(perm) == [0, 1, 2] and perm != (0, 1, 2)
    # compatibility with composition: conj by tau^2 = conj twice
    tau_sq = tau2 * tau2
    for i in (0, 1, 2):
        assert aw.omega_conjugate(tau_sq, i) == aw.omega_conjugate(
            tau2, aw.omega_conjugate(tau2, i))


def test_identity_omega_conjugate_fixes():
    d = preset("A2")
    e = aw.identity(d)
    for i in (0, 1, 2):
        assert aw.omega_conjugate(e, i) == i


def test_bruhat_basics():
    d = preset("A1")
    s0, s1, s010 = els(d, "s0", "s1", "w[0,1,0]")
    e = aw.identity(d)
    for w in aw.length_ball(d, 4):
        assert aw.bruhat_leq(e, w) == (aw.omega_part(w).is_identity())
    assert not aw.bruhat_leq(s0, s1)
    assert aw.bruhat_leq(s1, s010)


@pytest.mark.parametrize("make", [
    *[pytest.param(lambda t=t: preset(t), id=t) for t in ("A1:ad", "A2:ad", "C2", "G2")],
    pytest.param(lambda: _explicit_a1([[1, 1], [1, -1]]), id="A1-explicit-central"),
])
def test_bruhat_leq_matches_lower_sets_across_omega_parts(make):
    # The ball holds torsion Omega parts only, whose translations have zero
    # central coordinates; its translates by the lattice basis reach the
    # other classes of X / Q^vee, central ones included.  Pairs in different
    # Omega-cosets are decided by the descent alone, and lower_set(w) stays
    # in the Omega-coset of w.
    d = make()
    ball = aw.length_ball(d, 3)
    elements = ball + [aw.translation(d, b) * w for b in d.x_basis for w in ball]
    for w in elements:
        below = aw.lower_set(w)
        for u in elements:
            assert aw.bruhat_leq(u, w) == (u in below), \
                (aw.element_to_string(u), aw.element_to_string(w))


def test_bruhat_vs_subword_oracle():
    for spec in ("A1", "A2", "C2"):
        d = preset(spec)
        ball = aw.length_ball(d, 4)
        for u in ball:
            for w in ball:
                assert aw.bruhat_leq(u, w) == oracle.brute_bruhat(u, w), \
                    (spec, aw.element_to_string(u), aw.element_to_string(w))


def test_exchange_deletion_on_nonreduced_words():
    rng = random.Random(11)
    for spec in ("A2", "C2"):
        d = preset(spec)
        sys = aw.simple_system(d)
        for _ in range(60):
            word = [rng.choice(sys.indices) for _ in range(rng.randrange(2, 11))]
            prod = aw.identity(d)
            for i in word:
                prod = prod * sys.simple(i)
            if aw.length(prod) == len(word):
                continue
            # some two-letter deletion preserves the product
            found = False
            for a, b in itertools.combinations(range(len(word)), 2):
                trimmed = [x for k, x in enumerate(word) if k not in (a, b)]
                q = aw.identity(d)
                for i in trimmed:
                    q = q * sys.simple(i)
                if q == prod:
                    found = True
                    break
            assert found, (spec, word)


def test_demazure_trivial_and_absorption():
    d = preset("A1")
    assert aw.demazure_product(d, [1]) == els(d, "s1")[0]
    assert aw.demazure_product(d, [1, 1]) == els(d, "s1")[0]
    s0s1s0 = els(d, "w[0,1,0]")[0]
    assert aw.demazure_product(d, [0, 1, 1, 0]) == s0s1s0


def test_demazure_word_independence_exhaustive():
    # all reduced words of either factor give the same fold; with
    # w1 = r1 * tau1 and w2 = r2 * tau2, the product is
    # fold(r1 ++ tau1 r2 tau1^{-1}) * tau1 * tau2, so on the adjoint data,
    # where Omega is nontrivial, this checks the conjugation direction
    for spec, ball in (("A1", 3), ("A1:ad", 3), ("A2:ad", 2)):
        d = preset(spec)
        for w1 in aw.length_ball(d, ball):
            tau1 = _tau(w1)
            for w2 in aw.length_ball(d, ball):
                expected = demazure_mult(w1, w2)
                for r1 in all_reduced_words(w1):
                    for r2 in all_reduced_words(w2):
                        r2c = tuple(aw.omega_conjugate(tau1, i) for i in r2)
                        assert aw.demazure_product(d, r1 + r2c) * tau1 * _tau(w2) \
                            == expected, (spec, r1, r2)


def _tau(w):
    return aw.reduced_word(w)[1]


def test_demazure_associativity():
    rng = random.Random(3)
    d = preset("A2")
    ball = aw.length_ball(d, 3)
    for _ in range(80):
        a, b, c = (rng.choice(ball) for _ in range(3))
        assert demazure_mult(demazure_mult(a, b), c) \
            == demazure_mult(a, demazure_mult(b, c))


def test_min_coset_rep():
    d = preset("A1")
    f = aw.facet(d, [1])
    s0, s1 = els(d, "s0", "s1")
    assert aw.min_coset_rep(s1, f).is_identity()
    assert aw.min_coset_rep(s0 * s1, f) == s0
    t = aw.translation(d, (-2,))
    got = aw.min_coset_rep(t, f)
    # oracle: enumerate the coset and take the unique shortest
    coset = [t * v for v in wf_elements(f)]
    best = min(coset, key=aw.length)
    assert got == best
    # minimal rep is length-additive against the parabolic
    for v in wf_elements(f):
        assert aw.length(got * v) == aw.length(got) + aw.length(v)


def test_double_coset_rep_examples():
    d = preset("A1")
    f = aw.facet(d, [1])
    s0, s1 = els(d, "s0", "s1")
    assert aw.double_coset_rep(s1, f).rep.is_identity()
    # class of s0 at f={1}: the longest min-rep is t_{-alpha^vee}
    tm = aw.translation(d, (-2,))
    assert aw.double_coset_rep(s0, f) == aw.double_coset_rep(tm, f)
    assert aw.double_coset_rep(tm, f).rep == tm
    # idempotence
    idx = aw.double_coset_rep(s0, f)
    assert aw.double_coset_rep(idx.rep, f) == idx


def test_double_coset_classes_partition():
    # equal representatives exactly on W_f-double cosets (brute force)
    d = preset("A2")
    f = aw.facet(d, [1, 2])
    ball = aw.length_ball(d, 3)
    for w in ball:
        coset = {a * w * b for a in wf_elements(f) for b in wf_elements(f)}
        reps = {aw.double_coset_rep(x, f) for x in coset}
        assert len(reps) == 1


def test_a2_small_double_coset():
    d = preset("A2")
    f = aw.facet(d, [1, 2])
    s0 = aw.parse_element(d, "s0")
    idx = aw.double_coset_rep(s0, f)
    assert not idx.rep.is_identity()
    ival = aw.enumerate_lower_interval(idx)
    assert {c.length for c in ival} == {0, idx.length}


def test_enumerate_lower_interval_iwahori():
    d = preset("A1")
    f = aw.iwahori(d)
    idx = aw.double_coset_rep(aw.parse_element(d, "w[0,1]"), f)
    ival = aw.enumerate_lower_interval(idx)
    strs = sorted(aw.element_to_string(c.rep) for c in ival)
    assert len(ival) == 4  # e, s0, s1, s0s1
    assert "e" in strs


def test_enumerate_lower_interval_facet():
    d = preset("A1")
    f = aw.facet(d, [1])
    tm = aw.translation(d, (-2,))
    idx = aw.double_coset_rep(tm, f)
    ival = aw.enumerate_lower_interval(idx)
    assert {c.rep.is_identity() for c in ival} == {True, False}
    assert len(ival) == 2


def test_interval_downward_closed():
    d = preset("A2")
    f = aw.facet(d, [1, 2])
    for w in aw.length_ball(d, 4):
        idx = aw.double_coset_rep(w, f)
        ival = aw.enumerate_lower_interval(idx)
        for v in ival:
            assert aw.bruhat_leq(v.rep, idx.rep)
            for u in aw.enumerate_lower_interval(v):
                assert u in ival


def test_interval_cap_guard():
    d = preset("A1")
    f = aw.iwahori(d)
    idx = aw.double_coset_rep(aw.translation(d, (-8,)), f)
    with pytest.raises(aw.CapExceeded):
        aw.enumerate_lower_interval(idx, cap=3)


def _w_interval_classes(idx):
    """Reference for enumerate_lower_interval: the classes whose canonical
    representative lies in the W interval lower_set(idx.rep)."""
    return frozenset(c for v in aw.lower_set(idx.rep)
                     if (c := aw.double_coset_rep(v, idx.facet)).rep is v)


LOWER_CLASS_BALLS = {"A1": 5, "A1:ad": 5, "A2": 4, "A2:ad": 4, "C2": 4, "C2:ad": 4, "G2": 4,
                     "A3": 3, "B3": 3, "C3": 2, "A1xA1": 3, "A1xA2:ad": 2}


@pytest.mark.parametrize("spec", LOWER_CLASS_BALLS)
def test_lower_classes_match_the_w_interval(spec):
    # Every class of the length ball at every finite facet, on a fresh datum.
    d = RootDatum(preset(spec).cartan_datum)
    ball = aw.length_ball(d, LOWER_CLASS_BALLS[spec])
    for f in finite_facets(d):
        for idx in {aw.double_coset_rep(w, f) for w in ball}:
            assert aw.enumerate_lower_interval(idx) == _w_interval_classes(idx), (spec, f, idx)


@pytest.mark.parametrize("spec", LOWER_CLASS_BALLS)
def test_length_bound_never_fires_when_the_classes_fit_the_cap(spec):
    # On a miss, enumerate_lower_interval raises before walking when
    # l(m) > (cap - 1)(1 + 2N).  With cap the exact number of classes below,
    # every class of the ball at every finite facet must pass: sizes come
    # from one fresh datum, the capped calls (each a miss) run on another.
    def classes(d):
        ball = aw.length_ball(d, LOWER_CLASS_BALLS[spec])
        reps = {aw.double_coset_rep(w, f) for f in finite_facets(d) for w in ball}
        return {(idx.facet.indices, aw.element_to_string(idx.rep)): idx for idx in reps}

    sizes = {k: len(aw.enumerate_lower_interval(idx))
             for k, idx in classes(RootDatum(preset(spec).cartan_datum)).items()}
    d = RootDatum(preset(spec).cartan_datum)
    reach = 1 + 2 * len(d.positive_roots)
    for k, idx in classes(d).items():
        gens = idx.facet.gens
        assert aw.length(aw.coset_min(idx.rep, gens, gens)) <= (sizes[k] - 1) * reach, k
        assert len(aw.enumerate_lower_interval(idx, sizes[k])) == sizes[k], k


def test_cap_raises_before_walking_a_long_class(closure_results):
    # t[-100000] at A1's hyperspecial facet: m has length 199,999, past
    # (cap - 1)(1 + 2N) = 12 for cap 5, so no class is walked and no reduced
    # word of m is formed.
    d = RootDatum(preset("A1").cartan_datum)
    f = aw.facet(d, [1])
    idx = aw.double_coset_rep(aw.parse_element(d, "t[-100000]"), f)
    closure_results.clear()
    with pytest.raises(aw.CapExceeded, match="reached 6 elements, over the limit 5 set by"):
        aw.enumerate_lower_interval(idx, 5)
    m = aw.coset_min(idx.rep, f.gens, f.gens)
    assert aw.length(m) == 199999 and m._word is None
    assert closure_results == [] and idx._below is None


@pytest.mark.parametrize("spec, indices, text, count", [
    ("A1", (), "t[-8]", 32), ("A2", (1, 2), "t[-3,-3]", 8),
    ("C2", (0, 2), "t[-2,-1]*s1", 15), ("G2", (1, 2), "t[-2,-1]", 5)])
def test_lower_classes_cap_counts_classes(spec, indices, text, count):
    # The cap bounds classes, not W-interval elements: `count` passes and
    # anything less raises, on a miss and on a memo hit.  A capped call that
    # raised stores no set over the cap, and the uncapped call after it
    # returns what a fresh datum returns.
    def fresh_class():
        d = RootDatum(preset(spec).cartan_datum)
        return aw.double_coset_rep(aw.parse_element(d, text), aw.facet(d, indices))

    def names(classes):
        return sorted(aw.element_to_string(c.rep) for c in classes)

    expected = names(aw.enumerate_lower_interval(fresh_class()))
    assert len(expected) == count
    assert names(aw.enumerate_lower_interval(fresh_class(), count)) == expected
    for cap in (0, 1, count // 2, count - 1):
        over = f"lower interval reached {cap + 1} elements, over the limit {cap} set by --cap"
        idx = fresh_class()
        with pytest.raises(aw.CapExceeded, match=over):
            aw.enumerate_lower_interval(idx, cap)
        stored = [c._below for c in set(idx.facet._classes.values()) if c._below is not None]
        assert all(len(below) <= cap for below in stored)
        assert names(aw.enumerate_lower_interval(idx)) == expected
        with pytest.raises(aw.CapExceeded, match=over):
            aw.enumerate_lower_interval(idx, cap)
        assert names(aw.enumerate_lower_interval(idx, count)) == expected


def test_double_coset_rep_rejects_a_foreign_facet():
    d = preset("A2")
    other = RootDatum(d.cartan_datum, spec_string=d.spec_string)
    w = aw.parse_element(d, "t[-1,-1]")
    aw.double_coset_rep(w, aw.hyperspecial(d))  # fills the memo of d
    with pytest.raises(RootDatumError):
        aw.double_coset_rep(w, aw.hyperspecial(other))


def test_each_facet_memoizes_its_own_classes():
    # The memo of double_coset_rep is keyed by the element alone, on its
    # facet; a memo shared across facets would answer with the first class.
    for order in ((0, 1), (1, 0)):
        d = RootDatum(preset("A2").cartan_datum)
        w = aw.parse_element(d, "s1")
        facets = (aw.iwahori(d), aw.hyperspecial(d))
        expected = (w, aw.identity(d))
        for i in order + order:
            idx = aw.double_coset_rep(w, facets[i])
            assert idx.facet is facets[i]
            assert idx.rep is expected[i]


def w0m_size(d, j_m):
    """|W0(M)|, as the number of elements of W0 in W_M."""
    levi = sat.levi_datum(d, j_m)
    return sum(in_w_m(levi, from_finite(d, u)) for u in w0_elements(d))


def test_is_special_facet():
    d = preset("A1")
    assert aw.facet(d, [1]).is_special()
    assert not aw.iwahori(d).is_special()
    assert aw.facet(d, [0]).is_special()  # the other A1 vertex
    c2 = preset("C2")
    assert aw.facet(c2, [1, 2]).is_special()
    f02 = aw.facet(c2, [0, 2])
    # independent check: order of W_f and bijectivity of the projection
    finite_parts = {w.finite for w in wf_elements(f02)}
    expected = (len(wf_elements(f02)) == len(w0_elements(c2))
                and len(finite_parts) == len(wf_elements(f02)))
    assert f02.is_special() == expected
    assert not f02.is_special()  # f={0,2} is A1xA1, order 4 < 8
    assert aw.facet(c2, [0, 1]).is_special()


W0_ORDERS = {"A1": 2, "A2": 6, "A3": 24, "B2": 8, "G2": 12, "F4": 1152}


@pytest.mark.parametrize("size, expected", [
    *[pytest.param(lambda t=t: len(w0_elements(preset(t))), n, id=f"W0-{t}")
      for t, n in W0_ORDERS.items()],
    *[pytest.param(lambda t=t: len(wf_elements(aw.hyperspecial(preset(t)))), n,
                   id=f"hyperspecial-{t}") for t, n in W0_ORDERS.items()],
    pytest.param(lambda: w0m_size(preset("A2"), (0,)), 2, id="W0M-A2"),
    pytest.param(lambda: len(wf_elements(aw.facet(preset("A1xA1"), (0, 2)))), 4,
                 id="affine-nodes-A1xA1"),
    # A1 Iwahori: e plus two elements of each length 1..6 in the infinite
    # dihedral group
    pytest.param(lambda: len(aw.length_ball(preset("A1"), 6)), 13, id="ball-A1"),
    *[pytest.param(lambda t=t: len(preset(t).fundamental_group_torsion_reps()), n,
                   id=f"torsion-{t}")
      for t, n in (("A1:ad", 2), ("A2:ad", 3), ("A3:ad", 4))],
])
def test_closure_sizes(size, expected):
    assert size() == expected


def test_invalid_facet_rejected():
    # a whole block of a component (affine node and finite nodes) generates
    # an infinite group
    for spec, indices in (("A1", (0, 1)), ("A1xA1", (0, 1)), ("A1xA1", (2, 3)),
                          ("A1xA1", (0, 1, 2))):
        with pytest.raises(RootDatumError, match="finite parabolic"):
            aw.facet(preset(spec), indices)


@pytest.mark.parametrize("spec", ["E6", "E8"])
def test_iwahori_facet_does_not_enumerate_w0(spec):
    # W(E6) has 51,840 elements and W(E8) 696,729,600: no W0 walk may run.
    start = time.perf_counter()
    f = aw.iwahori(preset(spec))
    assert time.perf_counter() - start < 1.0
    assert len(wf_elements(f)) == 1
    start = time.perf_counter()
    assert not f.is_special()
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("spec", ["A6", "E6"])
def test_double_coset_rep_does_not_enumerate_w_f(spec, closure_results):
    # The hyperspecial W_f of A6 has 5,040 elements and that of E6 51,840;
    # the class is found by ascent and descent, so no closure reaches that size.
    d = preset(spec)
    start = time.perf_counter()
    f = aw.hyperspecial(d)
    aw.double_coset_rep(aw.parse_element(d, "t[-1" + ",0" * (d.dim - 1) + "]"), f)
    assert time.perf_counter() - start < 5.0
    assert max(map(len, closure_results), default=0) < {"A6": 5040, "E6": 51840}[spec]


def _interned_and_products(d):
    """((affine elements interned, affine product-memo entries), (finite
    elements interned, finite product-memo entries)) of a datum."""
    return ((len(d._affine_cache), sum(len(w._products) for w in d._affine_cache.values())),
            (len(d._weyl_cache), sum(len(u._products) for u in d._weyl_cache.values())))


def test_cold_class_work_counts_at_e7():
    # Deterministic work of one cold class map: s0 at the E7 hyperspecial
    # facet on a fresh datum, the elements interned and the product-memo
    # entries, affine and finite, parsing included.  A change that does more
    # work fails here; one that does less updates the pin.
    d = RootDatum(preset("E7").cartan_datum)
    idx = aw.double_coset_rep(aw.parse_element(d, "s0"), aw.hyperspecial(d))
    assert aw.element_to_string(idx.rep) == "t[-2,-2,-3,-4,-3,-2,-1]"
    assert _interned_and_products(d) == ((329, 369), (321, 369))


def test_cold_class_work_counts_at_e8():
    # The same for e at the E8 hyperspecial facet: the class map climbs from
    # the minimum to the longest element of W_f (an ascent per step).
    d = RootDatum(preset("E8").cartan_datum)
    idx = aw.double_coset_rep(aw.parse_element(d, "e"), aw.hyperspecial(d))
    assert aw.element_to_string(idx.rep) == "e"
    assert _interned_and_products(d) == ((877, 978), (876, 978))


def test_cold_levi_g_walk_work_counts_at_e7():
    # Deterministic work of one cold Satake walk with Levi = G: satake_phi of
    # s0 at the E7 hyperspecial facet on a fresh datum, parsing included.
    d = RootDatum(preset("E7").cartan_datum)
    f = aw.hyperspecial(d)
    idx = aw.double_coset_rep(aw.parse_element(d, "s0"), f)
    image = sat.satake_phi(idx, sat.levi_datum(d, range(d.n)), f, 2)
    assert [t["rep"] for t in image.to_json()["terms"]] == [
        "e", "t[2,2,3,4,3,2,1]*s1*s3*s4*s2*s5*s4*s3*s1*s6*s5*s4*s2*s3*s4*s5*s6*s7*s6*s5*s4"
             "*s2*s3*s1*s4*s3*s5*s4*s2*s6*s5*s4*s3*s1"]
    assert _interned_and_products(d) == ((3595, 5244), (3515, 5181))


def _explicit_a1(basis):
    return from_json({"type": "A1", "rank": 1, "lattice_basis": basis})


@pytest.mark.parametrize("make, size", [
    *[pytest.param(lambda t=t: preset(t), n, id=t)
      for t, n in (("A1", 1), ("A1:ad", 2), ("A2:ad", 3), ("A3:ad", 4), ("B2:ad", 2),
                   ("C3:ad", 2), ("D4:ad", 4), ("A1xA2:ad", 6))],
    pytest.param(lambda: _explicit_a1([[1, 0], [0, 1]]), 2, id="A1-explicit-split"),
    pytest.param(lambda: _explicit_a1([[1, 1], [1, -1]]), 1, id="A1-explicit-central"),
])
def test_torsion_reps_give_every_length_zero_element(make, size):
    # A length-zero t_lambda u with lambda in Q^vee (x) Q has minuscule lambda:
    # its simple pairings are in {-1, 0, 1} and its central coordinates are 0.
    d = make()
    omegas = {aw.omega_element(d, z) for z in d.fundamental_group_torsion_reps()}
    brute = set()
    for pairings in itertools.product((-1, 0, 1), repeat=d.n):
        lam = pairings + (0,) * (d.dim - d.n)
        if d.in_lattice(lam):
            brute.update(w for w in (aw.AffineWeylElement(d, lam, u)
                                     for u in w0_elements(d)) if aw.length(w) == 0)
    assert omegas == brute
    assert len(omegas) == len(d.fundamental_group_torsion_reps()) == size


@pytest.mark.parametrize("spec", ["A1:ad", "A2:ad", "C2", "G2", "A1xA2:ad"])
def test_finite_parabolics_lie_in_the_affine_weyl_group(spec):
    # W_f is generated by affine simple reflections, so its Omega part is trivial
    # and its translations lie in Q^vee.
    for f in finite_facets(preset(spec)):
        assert all(aw.omega_part(h).is_identity() for h in wf_elements(f)), f


@pytest.mark.parametrize("spec", ["A1", "A1:ad", "A2:ad", "B3", "C3", "G2", "A1xA2:ad"])
def test_is_special_matches_the_order_of_w_f(spec):
    # W_f -> W0 is injective, so W_f is special iff it has |W0| elements.
    d = preset(spec)
    order = len(w0_elements(d))
    for f in finite_facets(d):
        assert f.is_special() == (len(wf_elements(f)) == order), f


def test_element_string_roundtrip():
    for spec in ("A1", "A2", "A1:ad"):
        d = preset(spec)
        for w in aw.length_ball(d, 4):
            s = aw.element_to_string(w)
            assert aw.parse_element(d, s) == w


def test_parse_forms():
    d = preset("A1")
    assert aw.parse_element(d, "s0*s1") == aw.parse_element(d, "w[0,1]")
    assert aw.parse_element(d, "s0,1") == aw.parse_element(d, "w[0,1]")
    assert aw.parse_element(d, "e").is_identity()
    assert aw.parse_element(d, "t[-1]") == aw.translation(d, (-2,))
    with pytest.raises(Exception):
        aw.parse_element(d, "x[1]")


@pytest.mark.parametrize("text, at", [
    ("x[1]", 0), ("t[1", 0), ("s", 0), ("-", 0), ("s1x", 2), ("s1*t[a]", 5), ("t[,]", 2),
    ("w[1,,2]", 2), ("t[+1]", 2), ("t[1_0]", 2), ("t[\t1]", 2), ("s\u0661", 0), ("\u00b2", 0),
    ("e*\uff11", 2)])
def test_parse_error_positions(text, at):
    # Integers are ASCII: no sign '+', no '_', no other digit or space.
    d = preset("A1")
    with pytest.raises(RootDatumError, match=f"cannot parse element .* at {at}$"):
        aw.parse_element(d, text)
