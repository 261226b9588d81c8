import itertools
import random
import time

import pytest

from modp_hecke import affine_weyl as aw
from modp_hecke import oracle
from modp_hecke import satake as sat
from modp_hecke.root_datum import RootDatum, RootDatumError, from_json, preset


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
        theta, theta_vee = d.highest_roots[0]
        assert s0.translation == theta_vee
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
    while aw.length(cur) > 0:
        cur = cur * sys.elements[next(aw.right_descents(cur))]
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
def test_same_omega_part_matches_reduced_words(make):
    # The ball holds torsion Omega parts only, whose translations have zero
    # central coordinates; its translates by the lattice basis reach the
    # other classes of X / Q^vee, central ones included.
    d = make()
    ball = aw.length_ball(d, 3)
    elements = ball + [aw.translation(d, b) * w for b in d.x_basis for w in ball]
    for u in elements:
        for w in elements:
            assert aw.same_omega_part(u, w) == (aw.omega_part(u) == aw.omega_part(w)), \
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
                expected = aw.demazure_mult(w1, w2)
                for r1 in _reduced_words(w1):
                    for r2 in _reduced_words(w2):
                        r2c = tuple(aw.omega_conjugate(tau1, i) for i in r2)
                        assert aw.demazure_product(d, r1 + r2c) * tau1 * _tau(w2) \
                            == expected, (spec, r1, r2)


def _tau(w):
    return aw.reduced_word(w)[1]


def _reduced_words(w):
    word, _ = aw.reduced_word(w)
    if not word:
        return [()]
    sys = aw.simple_system(w.datum)
    out = []
    for i in aw.left_descents(w):
        for rest in _reduced_words(sys.simple(i) * w):
            out.append((i,) + rest)
    return out


def test_demazure_associativity():
    rng = random.Random(3)
    d = preset("A2")
    ball = aw.length_ball(d, 3)
    for _ in range(80):
        a, b, c = (rng.choice(ball) for _ in range(3))
        assert aw.demazure_mult(aw.demazure_mult(a, b), c) \
            == aw.demazure_mult(a, aw.demazure_mult(b, c))


def test_min_coset_rep():
    d = preset("A1")
    f = aw.facet(d, [1])
    s0, s1 = els(d, "s0", "s1")
    assert aw.min_coset_rep(s1, f).is_identity()
    assert aw.min_coset_rep(s0 * s1, f) == s0
    t = aw.translation(d, (-2,))
    got = aw.min_coset_rep(t, f)
    # oracle: enumerate the coset and take the unique shortest
    coset = [t * v for v in f.elements]
    best = min(coset, key=aw.length)
    assert got == best
    # minimal rep is length-additive against the parabolic
    for v in f.elements:
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
        coset = {a * w * b for a in f.elements for b in f.elements}
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


@pytest.mark.parametrize("spec, text", [("A1", "t[-8]"), ("A2", "t[-2,-2]*s1"),
                                        ("G2", "t[-1,-1]")])
def test_interval_cap_bounds_the_sets_built(spec, text):
    # The cap is checked while a set is built, so no set larger than the cap
    # is ever stored.
    for cap in (1, 2, 5, 9, 20):
        d = RootDatum(preset(spec).cartan_datum)
        with pytest.raises(aw.CapExceeded, match=f"reached {cap + 1} elements"):
            aw.lower_set(aw.parse_element(d, text), cap=cap)
        assert max(map(len, d.lower_memo.values())) <= cap


def test_double_coset_rep_rejects_a_foreign_facet():
    d = preset("A2")
    other = RootDatum(d.cartan_datum, spec_string=d.spec_string)
    w = aw.parse_element(d, "t[-1,-1]")
    aw.double_coset_rep(w, aw.hyperspecial(d))  # fills the memo of d
    with pytest.raises(RootDatumError):
        aw.double_coset_rep(w, aw.hyperspecial(other))


def test_is_special_facet():
    d = preset("A1")
    assert aw.facet(d, [1]).is_special()
    assert not aw.iwahori(d).is_special()
    assert aw.facet(d, [0]).is_special()  # the other A1 vertex
    c2 = preset("C2")
    assert aw.facet(c2, [1, 2]).is_special()
    f02 = aw.facet(c2, [0, 2])
    # independent check: order of W_f and bijectivity of the projection
    finite_parts = {w.finite for w in f02.elements}
    expected = (len(f02.elements) == len(c2.w0_elements())
                and len(finite_parts) == len(f02.elements))
    assert f02.is_special() == expected
    assert not f02.is_special()  # f={0,2} is A1xA1, order 4 < 8
    assert aw.facet(c2, [0, 1]).is_special()


W0_ORDERS = {"A1": 2, "A2": 6, "A3": 24, "B2": 8, "G2": 12, "F4": 1152}


@pytest.mark.parametrize("size, expected", [
    *[pytest.param(lambda t=t: len(preset(t).w0_elements()), n, id=f"W0-{t}")
      for t, n in W0_ORDERS.items()],
    *[pytest.param(lambda t=t: len(aw.hyperspecial(preset(t)).elements), n,
                   id=f"hyperspecial-{t}") for t, n in W0_ORDERS.items()],
    pytest.param(lambda: len(sat.LeviDatum(preset("A2"), (0,)).w0m), 2, id="W0M-A2"),
    pytest.param(lambda: len(aw.facet(preset("A1xA1"), (0, 2)).elements), 4,
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
    assert len(f.elements) == 1
    start = time.perf_counter()
    assert not f.is_special()
    assert time.perf_counter() - start < 1.0


def _finite_facets(d):
    """Every facet of d whose W_f is finite, the Iwahori facet included."""
    indices = aw.simple_system(d).indices
    out = []
    for r in range(len(indices)):
        for J in itertools.combinations(indices, r):
            try:
                out.append(aw.facet(d, J))
            except RootDatumError:
                pass  # J holds a whole component block
    return out


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
                                     for u in d.w0_elements()) if aw.length(w) == 0)
    assert omegas == brute
    assert len(omegas) == len(d.fundamental_group_torsion_reps()) == size


@pytest.mark.parametrize("spec", ["A1:ad", "A2:ad", "C2", "G2", "A1xA2:ad"])
def test_finite_parabolics_lie_in_the_affine_weyl_group(spec):
    # W_f is generated by affine simple reflections, so its Omega part is trivial
    # and its translations lie in Q^vee.
    for f in _finite_facets(preset(spec)):
        assert all(aw.omega_part(h).is_identity() for h in f.elements), f


@pytest.mark.parametrize("spec", ["A1", "A1:ad", "A2:ad", "B3", "C3", "G2", "A1xA2:ad"])
def test_is_special_matches_the_order_of_w_f(spec):
    # W_f -> W0 is injective, so W_f is special iff it has |W0| elements.
    d = preset(spec)
    for f in _finite_facets(d):
        assert f.is_special() == (len(f.elements) == len(d.w0_elements())), f


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
