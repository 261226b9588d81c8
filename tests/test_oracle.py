import random

import pytest

from modp_hecke import affine_weyl as aw
from modp_hecke import hecke as hk
from modp_hecke import oracle as orc
from modp_hecke.root_datum import CartanDatum, RootDatum, from_json, preset
from reference import (alternating_data, brute_length, cls, finite_facets, generic,
                       generic_coeffs, specialize_q0_mod_p, t_basis, w_max)


def test_quadratic_relation():
    d = preset("A1")
    s1 = aw.parse_element(d, "s1")
    t = t_basis(s1)
    sq = generic_coeffs(t * t)
    assert orc.unpack(sq[s1]) == (-1, 1)                 # (q - 1) T_s
    assert orc.unpack(sq[aw.identity(d)]) == (0, 1)      # q T_e


def test_lengths_add():
    d = preset("A1")
    s0, s1 = aw.parse_element(d, "s0"), aw.parse_element(d, "s1")
    prod = t_basis(s0) * t_basis(s1)
    assert generic_coeffs(prod) == {s0 * s1: orc.pack((1,))}


def test_generic_associativity_random():
    rng = random.Random(23)
    d = preset("A2")
    ball = aw.length_ball(d, 3)
    for _ in range(20):
        a, b, c = (t_basis(rng.choice(ball)) for _ in range(3))
        assert (a * b) * c == a * (b * c)


def test_q1_degenerates_to_group_algebra():
    rng = random.Random(29)
    d = preset("A1")
    ball = aw.length_ball(d, 4)
    for _ in range(25):
        u, w = rng.choice(ball), rng.choice(ball)
        prod = t_basis(u) * t_basis(w)
        collapsed = {}
        for v, p in generic_coeffs(prod).items():
            c = sum(orc.unpack(p))
            if c:
                collapsed[v] = collapsed.get(v, 0) + c
        assert collapsed == {u * w: 1}


def test_specialize_q0_mod_p():
    d = preset("A1")
    f = aw.iwahori(d)
    s1 = aw.parse_element(d, "s1")
    a = generic(d, {s1: orc.pack((-1, 1)), aw.identity(d): orc.pack((0, 1))})
    out = specialize_q0_mod_p(a, 3, f)
    assert out.coeffs == {aw.DoubleCosetIndex(f, s1): 2}
    b = generic(d, {aw.identity(d): orc.pack((0, 1))})
    assert not specialize_q0_mod_p(b, 5, f).coeffs


@pytest.mark.parametrize("p", orc.PRIMES)
def test_generic_to_phi_carries_a_remainder_down(p):
    # 1_{s1} = phi[s1] - phi[e], so the back-substitution leaves p - 1 at e:
    # a product of one phi class never reaches that branch.
    d = preset("A1")
    f = aw.iwahori(d)
    a = t_basis(aw.parse_element(d, "s1"))
    expected = hk.HeckeElement(f, p, "phi", {cls(d, f, "s1"): 1, cls(d, f, "e"): p - 1})
    assert orc.generic_to_phi(a, f, p) == expected
    assert specialize_q0_mod_p(a, p, f).convert("phi") == expected


def test_pack_round_trip_and_repr():
    limit = orc.PACK_LIMIT
    for poly in ((), (1,), (-1, 1), (0, 1), (3, 0, -2), (-limit, limit - 1, -1)):
        assert orc.unpack(orc.pack(poly)) == poly
    d = preset("A1")
    s1 = aw.parse_element(d, "s1")
    t = t_basis(s1)
    assert repr(t * t) == "((0, 1))*T[e] + ((-1, 1))*T[s1]"
    fresh = RootDatum(CartanDatum((("A", 1),), "sc"))
    assert repr(orc.GenericHeckeElement(fresh, {}, 0)) == "0"


def test_product_over_the_packing_limit_raises():
    # l(t[20]) = 40 and 3^40 > 2^63: the bound is refused before any product
    d = preset("A1")
    t20 = t_basis(aw.parse_element(d, "t[20]"))
    with pytest.raises(aw.CapExceeded, match=f"reached {3 ** 40}, over the limit "
                                             f"{orc.PACK_LIMIT} set by the packed Z"):
        t20 * t20
    t10 = t_basis(aw.parse_element(d, "t[10]"))
    assert (t10 * t10).bound == 3 ** 20
    # T_w + T_{w s1} factors as T_{w s1} (1 + T_s1), but its bound still counts
    # l(w) = 40 letters: 2 * 3^39 would pass under the limit.
    w = aw.parse_element(d, "t[20]")
    pair = generic(d, {w: 1, w * aw.parse_element(d, "s1"): 1})
    with pytest.raises(aw.CapExceeded, match=f"reached {2 * 3 ** 40}, over the limit "):
        t_basis(aw.identity(d)) * pair


def test_oracle_convolution_example():
    d = preset("A1")
    f = aw.iwahori(d)
    s01 = aw.double_coset_rep(aw.parse_element(d, "w[0,1]"), f)
    s1 = aw.double_coset_rep(aw.parse_element(d, "s1"), f)
    out = orc.oracle_convolve_phi(s01, s1, 2)
    assert out == hk.phi_basis_element(s01, 2)


def test_oracle_vs_convolve_spot():
    d = preset("A2")
    f = aw.iwahori(d)
    classes = [aw.DoubleCosetIndex(f, w) for w in aw.length_ball(d, 2)]
    for p in (2, 3):
        for w1 in classes:
            for w2 in classes:
                got, _ = hk.convolve_phi_classes(w1, w2)
                assert orc.oracle_convolve_phi(w1, w2, p) == hk.phi_basis_element(got, p)


def test_brute_bruhat_examples():
    d = preset("A1")
    e = aw.identity(d)
    s010 = aw.parse_element(d, "w[0,1,0]")
    s01 = aw.parse_element(d, "w[0,1]")
    assert orc.brute_bruhat(e, s01)
    assert not orc.brute_bruhat(s010, s01)


def test_brute_length_examples():
    d = preset("A1")
    assert orc.brute_length(aw.identity(d)) == 0
    assert orc.brute_length(aw.translation(d, (2,))) == 2
    assert orc.brute_length(aw.parse_element(d, "w[0,1,0]")) == 3


@pytest.mark.parametrize("spec, radius", [
    ("A1", 8), ("A2:ad", 5), ("C2", 6), ("G2", 6), ("B3", 4), ("A1xA2:ad", 4),
    ({"type": "A1", "rank": 1, "lattice_basis": [[1, 1], [1, -1]]}, 6)],
    ids=("A1", "A2:ad", "C2", "G2", "B3", "A1xA2:ad", "A1-explicit-central"))
def test_brute_length_matches_the_fraction_count(spec, radius):
    # The integer count at (h + 1) b = rho_check against the count at the
    # base-alcove point b itself, in Fractions
    d = from_json(spec) if isinstance(spec, dict) else preset(spec)
    ball = aw.length_ball(d, radius)
    assert max(map(aw.length, ball)) == radius
    for w in ball:
        assert orc.brute_length(w) == brute_length(w), w


def test_check_length_names_a_planted_failure(monkeypatch):
    # A planted count one too high above length 4 fails first on t[-2]*s1,
    # the first element of length 5 in the ball's order
    real = orc.brute_length
    monkeypatch.setattr(orc, "brute_length", lambda w: (n := real(w)) + (n > 4))
    row = orc.check_length(preset("A1"), 6)
    assert row == {"datum": "A1:sc", "ok": False, "failed": "<t[-2]*s1>"}


def test_check_bruhat_names_a_planted_failure(monkeypatch):
    # A planted subword test negated on the one pair (s1, s0*s1), printed
    # (s1, t[1]), fails there
    d = preset("A1")
    s1, s01 = aw.parse_element(d, "s1"), aw.parse_element(d, "s0*s1")
    real = orc.brute_bruhat
    monkeypatch.setattr(orc, "brute_bruhat",
                        lambda u, w, cap: real(u, w, cap) != ((u, w) == (s1, s01)))
    row = orc.check_bruhat(d, 3)
    assert row == {"datum": "A1:sc", "ok": False, "failed": ("<s1>", "<t[1]>")}


def test_check_convolution_on_adjoint_data():
    # Omega is nontrivial here, so the convolution's tau1 and tau2 are too
    for spec, cap, pairs in (("A1:ad", 3, 588), ("A2:ad", 2, 2700)):
        row = orc.check_convolution(preset(spec), cap)
        assert row["ok"] and row["pairs"] == pairs, row


def test_check_convolution_names_a_planted_failure(monkeypatch):
    # A planted convolution that drops w2 is right on (e, e) and wrong on (e, s1),
    # the second class of the ball
    d = preset("A1")
    real = hk.convolve_phi_classes
    monkeypatch.setattr(orc, "convolve_phi_classes", lambda w1, w2: real(w1, w1))
    row = orc.check_convolution(d, 2)
    assert row == {"datum": "A1:sc", "ok": False, "pairs": len(orc.PRIMES),
                   "failed": ("[e]", "[s1]", orc.PRIMES[0])}


def test_check_convolution_names_a_planted_generic_failure(monkeypatch):
    # A planted generic product that adds 1 to the constant term of T_e when
    # the right factor has two terms or more is right on (e, e) and wrong on
    # (e, s1), at the first prime
    d = preset("A1")
    real = orc.GenericHeckeElement.__mul__

    def planted(a, b):
        prod = real(a, b)
        if len(b.terms) < 2:
            return prod
        coeffs = generic_coeffs(prod)
        e = aw.identity(d)
        return generic(d, {**coeffs, e: coeffs.get(e, 0) + 1})

    monkeypatch.setattr(orc.GenericHeckeElement, "__mul__", planted)
    row = orc.check_convolution(d, 2)
    assert row == {"datum": "A1:sc", "ok": False, "pairs": len(orc.PRIMES),
                   "failed": ("[e]", "[s1]", orc.PRIMES[0])}


def _generic_strings(a):
    return {str(w): orc.unpack(c) for w, c in generic_coeffs(a).items()}


def test_generic_step_table_lives_and_dies_with_its_datum():
    # T_{s0 s1}^2 on A2 and B2 on one explicit lattice, built and freed in turn:
    # the step table is the datum's, so no product reads another datum's steps.
    expected = ({"t[-1,2]*s2": (-1, 1), "t[-1,2]*s2*s1": (0, 1)},
                {"e": (0, 0, 1), "s1": (0, -1, 1), "t[0,1]*s1*s2*s1*s2": (1, -2, 1),
                 "t[0,1]*s2*s1*s2": (0, -1, 1)})
    wrong = 0
    for k, d in alternating_data(100):
        t = t_basis(aw.parse_element(d, "s0*s1"))
        if _generic_strings(t * t) != expected[k]:
            wrong += 1
    assert wrong == 0


@pytest.mark.parametrize("spec", ["A2", "C2"])
def test_oracle_convolution_does_not_depend_on_call_order(spec):
    # The same calls on a fresh datum in reverse order give the same answers,
    # though the step table numbers the elements in another order.
    def answers(pairs):
        d = RootDatum(CartanDatum(((spec[0], 2),), "sc"))
        f = aw.iwahori(d)
        ball = [aw.DoubleCosetIndex(f, w) for w in aw.length_ball(d, 2)]
        return {(i, j, p): {repr(c): v for c, v in
                            orc.oracle_convolve_phi(ball[i], ball[j], p).coeffs.items()}
                for i, j, p in pairs}

    n = len(aw.length_ball(preset(spec), 2))
    pairs = [(i, j, p) for i in range(n) for j in range(n) for p in (2, 3)]
    assert answers(pairs) == answers(pairs[::-1])


def test_a_generic_product_across_data_raises():
    # Also when the left factor is zero, which meets no step table; and the
    # product numbers no element and fills no step on either datum.
    a, b = (RootDatum(CartanDatum((("A", 1),), "sc")) for _ in range(2))
    s1 = t_basis(aw.parse_element(b, "s1"))
    with pytest.raises(aw.RootDatumError, match="datum mismatch"):
        orc.GenericHeckeElement(a, {}, 0) * s1
    assert a.generic_steps is None
    with pytest.raises(aw.RootDatumError, match="datum mismatch"):
        t_basis(aw.parse_element(a, "s1")) * s1
    assert [d.generic_steps.steps for d in (a, b)] == [[None], [None]]


@pytest.mark.parametrize("spec", ["A1:ad", "A2", "C2"])
def test_element_built_and_numbered_operands_agree(spec):
    # phi_to_generic numbers the step table's lower set of the class; its twin
    # `reference.generic` numbers a dict keyed by the elements of lower_set.
    # All four pairings give one product with one bound.
    d = preset(spec)
    f = aw.iwahori(d)
    ball = [aw.DoubleCosetIndex(f, w) for w in aw.length_ball(d, 2)]

    def by_element(c):
        return generic(d, dict.fromkeys(aw.lower_set(c.rep), 1))

    makers = (orc.phi_to_generic, by_element)
    for c1, c2 in zip(ball, ball[::-1]):
        products = [make1(c1) * make2(c2) for make1 in makers for make2 in makers]
        assert all(p == products[0] and p.bound == products[0].bound for p in products)
        assert (orc.generic_to_phi(by_element(c1), f, 2)
                == orc.generic_to_phi(orc.phi_to_generic(c1), f, 2))


def test_an_element_built_element_equals_the_product():
    d = preset("A2")
    s0, s1, e = (aw.parse_element(d, w) for w in ("s0", "s1", "e"))
    prod = t_basis(s0) * t_basis(s1)
    assert prod == generic(d, {s0 * s1: orc.pack((1,))})
    assert generic(d, {s0 * s1: 1}) == prod
    assert t_basis(s1) * t_basis(s1) == generic(
        d, {s1: orc.pack((-1, 1)), e: orc.pack((0, 1))})
    assert prod != t_basis(s1 * s0)


@pytest.mark.parametrize("spec", ["A1:ad", "A2", "G2"])
def test_fresh_and_warm_oracle_convolutions_agree(spec):
    # A warm datum numbered its elements in the order of every earlier call,
    # a fresh one numbers them in this call's order: the answers are the same.
    warm = preset(spec)
    fresh = RootDatum(warm.cartan_datum, spec_string=warm.spec_string)

    def answers(d):
        f = aw.iwahori(d)
        ball = [aw.DoubleCosetIndex(f, w) for w in aw.length_ball(d, 2)]
        return {(i, j, p): {repr(c): v for c, v in
                            orc.oracle_convolve_phi(ball[i], ball[j], p).coeffs.items()}
                for i in range(len(ball))[::-1] for j in range(len(ball)) for p in (2, 3)}

    first = answers(warm)
    assert answers(fresh) == answers(warm) == first


def test_oracle_convolution_work_counts(monkeypatch):
    # Deterministic work of one oracle convolution on a fresh A2 datum: the
    # elements interned, the affine product memo entries, the elements the
    # step table numbers, with the right steps of how many filled, and the
    # numbered lower sets it holds: one per factor and one per element the
    # back-substitution takes.  Then the calls of `_times_s` and the terms
    # passed through them, which the (1 + T_s) peel keeps down.
    d = RootDatum(CartanDatum((("A", 2),), "sc"))
    f = aw.iwahori(d)
    w1 = aw.double_coset_rep(aw.parse_element(d, "t[1,-1]*s1"), f)
    w2 = aw.double_coset_rep(aw.parse_element(d, "w[0,1,2,1]"), f)
    real, times_s = orc._times_s, [0, 0]

    def counted(terms, k, table, out):
        times_s[0] += 1
        times_s[1] += len(terms)
        return real(terms, k, table, out)

    monkeypatch.setattr(orc, "_times_s", counted)
    out = orc.oracle_convolve_phi(w1, w2, 3)
    table = d.generic_steps
    assert (len(d._affine_cache),
            sum(len(w._products) for w in d._affine_cache.values()),
            len(table.elements),
            sum(st is not None for st in table.steps),
            len(table.lowers), *times_s) == (65, 129, 64, 42, 3, 8, 192)
    assert out == hk.phi_basis_element(hk.convolve_phi_classes(w1, w2)[0], 3)


def test_run_checks_all_pass():
    rows = orc.run_checks([preset("A1")], conv_cap=2, bruhat_cap=3, length_cap=4)
    assert all(r["ok"] for _, r in rows)


def test_subword_cap_does_not_depend_on_the_memo():
    d = RootDatum(CartanDatum((("A", 1),), "sc"))
    e, w = aw.identity(d), aw.parse_element(d, "t[-10]")
    assert orc.brute_bruhat(e, w, cap=30)
    with pytest.raises(aw.CapExceeded, match="limit 4"):
        orc.brute_bruhat(e, w, cap=4)


def _facet_convolution_disagreements(plant=None):
    """(cases, disagreements) of convolution at each non-Iwahori finite facet
    against the Iwahori oracle.  As an Iwahori-biinvariant function, phi of a
    K-class is phi of the Iwahori class of its longest element w_max, and a
    product in H(G, K) is the Iwahori product divided by P_f(q) (Iwahori and
    Matsumoto, 1965).  P_f(0) = 1, so at q = 0 mod p no division is needed.
    `plant` maps the class `convolve_phi_classes` returns to the one checked."""
    cases = wrong = 0
    for spec in ("A1", "A1:ad", "A2", "A2:ad", "C2", "G2"):
        d = preset(spec)
        iwahori = aw.iwahori(d)
        for f in finite_facets(d):
            if f.is_iwahori:
                continue
            classes = {aw.double_coset_rep(w, f) for w in aw.length_ball(d, 3)}
            iw = {c: aw.double_coset_rep(w_max(c), iwahori)
                  for c in classes if c.length <= 3}
            for a in iw:
                for b in iw:
                    out = hk.convolve_phi_classes(a, b)[0]
                    if plant is not None:
                        out = plant(out)
                    out = aw.double_coset_rep(w_max(out), iwahori)
                    for p in orc.PRIMES:
                        cases += 1
                        wrong += (orc.oracle_convolve_phi(iw[a], iw[b], p)
                                  != hk.phi_basis_element(out, p))
    return cases, wrong


def test_convolution_at_every_finite_facet_matches_the_oracle():
    assert _facet_convolution_disagreements() == (3027, 0)


def test_facet_oracle_check_catches_a_planted_fold():
    # The product class moved to that of s0 * rep * s1.
    def plant(idx):
        s = aw.simple_system(idx.facet.datum).elements
        return aw.double_coset_rep(s[0] * idx.rep * s[1], idx.facet)
    assert _facet_convolution_disagreements(plant) == (3027, 2853)
