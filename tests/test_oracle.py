import random

import pytest

from modp_hecke import affine_weyl as aw
from modp_hecke import hecke as hk
from modp_hecke import oracle as orc
from modp_hecke.root_datum import CartanDatum, RootDatum, preset
from reference import t_basis


def test_quadratic_relation():
    d = preset("A1")
    s1 = aw.parse_element(d, "s1")
    t = t_basis(s1)
    sq = t * t
    assert orc.unpack(sq.coeffs[s1]) == (-1, 1)                 # (q - 1) T_s
    assert orc.unpack(sq.coeffs[aw.identity(d)]) == (0, 1)      # q T_e


def test_lengths_add():
    d = preset("A1")
    s0, s1 = aw.parse_element(d, "s0"), aw.parse_element(d, "s1")
    prod = t_basis(s0) * t_basis(s1)
    assert prod.coeffs == {s0 * s1: orc.pack((1,))}


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
        for v, p in prod.coeffs.items():
            c = sum(orc.unpack(p))
            if c:
                collapsed[v] = collapsed.get(v, 0) + c
        assert collapsed == {u * w: 1}


def test_specialize_q0_mod_p():
    d = preset("A1")
    f = aw.iwahori(d)
    s1 = aw.parse_element(d, "s1")
    a = orc.GenericHeckeElement(d, {s1: orc.pack((-1, 1)), aw.identity(d): orc.pack((0, 1))})
    out = orc.specialize_q0_mod_p(a, 3, f)
    assert out.coeffs == {aw.DoubleCosetIndex(f, s1): 2}
    b = orc.GenericHeckeElement(d, {aw.identity(d): orc.pack((0, 1))})
    assert orc.specialize_q0_mod_p(b, 5, f).is_zero()


def test_pack_round_trip_and_repr():
    limit = orc.PACK_LIMIT
    for poly in ((), (1,), (-1, 1), (0, 1), (3, 0, -2), (-limit, limit - 1, -1)):
        assert orc.unpack(orc.pack(poly)) == poly
    d = preset("A1")
    s1 = aw.parse_element(d, "s1")
    t = t_basis(s1)
    assert repr(t * t) == "((0, 1))*T[e] + ((-1, 1))*T[s1]"


def test_product_over_the_packing_limit_raises():
    # l(t[20]) = 40 and 3^40 > 2^63: the bound is refused before any product
    d = preset("A1")
    t20 = t_basis(aw.parse_element(d, "t[20]"))
    with pytest.raises(aw.CapExceeded, match=f"reached {3 ** 40}, over the limit "
                                             f"{orc.PACK_LIMIT} set by the packed Z"):
        t20 * t20
    t10 = t_basis(aw.parse_element(d, "t[10]"))
    assert (t10 * t10).bound == 3 ** 20


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


def test_check_convolution_on_adjoint_data():
    # Omega is nontrivial here, so the convolution's tau1 and tau2 are too
    for spec, cap, pairs in (("A1:ad", 3, 588), ("A2:ad", 2, 2700)):
        row = orc.check_convolution(preset(spec), cap)
        assert row["ok"] and row["pairs"] == pairs, row


def test_run_checks_all_pass():
    rows = orc.run_checks(specs=("A1",), conv_cap=2, bruhat_cap=3, length_cap=4)
    assert all(r["ok"] for _, r in rows)


def test_subword_cap_does_not_depend_on_the_memo():
    d = RootDatum(CartanDatum((("A", 1),), "sc"))
    e, w = aw.identity(d), aw.parse_element(d, "t[-10]")
    assert orc.brute_bruhat(e, w, cap=30)
    with pytest.raises(aw.CapExceeded, match="limit 4"):
        orc.brute_bruhat(e, w, cap=4)
