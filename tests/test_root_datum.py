import gc
import random

import pytest

from modp_hecke import affine_weyl as aw
from modp_hecke import root_datum as rd


def test_a1_sc_structure():
    d = rd.preset("A1")
    assert d.positive_roots == ((1,),)
    assert d.positive_coroots == ((2,),)
    assert d.x_basis == ((2,),)  # X = Z alpha^vee


def test_a2_positive_root_count():
    d = rd.preset("A2")
    assert len(d.positive_roots) == 3


def test_g2_adjoint_root_count():
    d = rd.preset("G2:ad")
    # oracle: reflection closure from the Cartan matrix, done independently
    a = rd.cartan_matrix("G", 2)
    roots = {(1, 0), (0, 1)}
    while True:
        new = set()
        for r in roots:
            for i in range(2):
                m = sum(r[k] * a[k][i] for k in range(2))
                img = tuple(r[j] - m * (j == i) for j in range(2))
                if img not in roots:
                    new.add(img)
        if not new:
            break
        roots |= new
    assert len(roots) == 12
    assert 2 * len(d.positive_roots) == 12


def test_root_counts_bcd():
    assert len(rd.preset("B2").positive_roots) == 4
    assert len(rd.preset("C2").positive_roots) == 4
    assert len(rd.preset("A3").positive_roots) == 6
    assert len(rd.preset("D4").positive_roots) == 12
    assert len(rd.preset("F4").positive_roots) == 24


def test_invalid_types_rejected():
    with pytest.raises(rd.RootDatumError):
        rd.preset("E5")
    with pytest.raises(rd.RootDatumError):
        rd.preset("G3")
    with pytest.raises(rd.RootDatumError):
        rd.preset("H2")


def test_explicit_lattice_must_contain_coroots():
    with pytest.raises(rd.RootDatumError):
        rd.from_json({"type": "A1", "rank": 1, "lattice_basis": [[4]]})
    d = rd.from_json({"type": "A1", "rank": 1, "lattice_basis": [[1]]})
    assert d.x_basis == ((1,),)


def test_pairing_normalization():
    d = rd.preset("A1")
    alpha = (1,)
    assert d.pair(alpha, d.coroot(alpha)) == 2
    a2 = rd.preset("A2")
    assert a2.pair((1, 0), a2.coroot((0, 1))) == -1


def test_c2_highest_root_pairing():
    d = rd.preset("C2")
    theta, _ = d.highest_roots[0]
    assert theta == (2, 1)
    # first fundamental coweight in ambient coords is e_1
    omega1 = (1, 0)
    assert d.pair(theta, omega1) == 2


def test_cartan_integers_reproduced():
    for spec in ("A2", "B2", "C2", "G2"):
        d = rd.preset(spec)
        for i in range(d.n):
            for j in range(d.n):
                alpha_i = tuple(int(k == i) for k in range(d.n))
                assert d.pair(alpha_i, d.simple_coroots[j]) == d.cartan[i][j]


def test_weyl_action_preserves_roots_and_pairing():
    rng = random.Random(7)
    for spec in ("A2", "C2", "G2"):
        d = rd.preset(spec)
        for w in d.w0_elements():
            for rt in d.positive_roots:
                img = w.act_root(rt)
                assert img in d.positive_roots or tuple(-x for x in img) in d.positive_roots
            for _ in range(3):
                nu = tuple(rng.randrange(-3, 4) for _ in range(d.dim))
                rt = d.positive_roots[rng.randrange(len(d.positive_roots))]
                assert d.pair(w.act_root(rt), w.act(nu)) == d.pair(rt, nu)


def test_finite_length_matches_word_length():
    # the affine length at zero translation counts the positive roots
    # w^{-1} negates, which is the finite length of w
    for spec in ("A2", "C2", "G2"):
        d = rd.preset(spec)
        for w in d.w0_elements():
            assert aw.length(aw.from_finite(d, w)) == len(d.finite_word(w))


def test_is_antidominant():
    d = rd.preset("A1")
    assert d.is_antidominant(d.zero_coweight())
    assert d.is_antidominant((-2,))       # -alpha^vee
    assert not d.is_antidominant((2,))    # +alpha^vee


def test_antidominant_representative_a1():
    d = rd.preset("A1")
    z, w = d.antidominant_representative((-2,))
    assert z == (-2,) and w.is_identity()
    z, w = d.antidominant_representative((2,))
    assert z == (-2,) and w == d.simple_reflections[0]
    assert w.act((2,)) == (-2,)


def test_antidominant_representative_orbit_invariant():
    # oracle: enumerate the full W0-orbit and filter for anti-dominance
    d = rd.preset("A2")
    nu = (2, -1)
    orbit = {w.act(nu) for w in d.w0_elements()}
    anti = [x for x in orbit if d.is_antidominant(x)]
    assert len(anti) == 1
    for x in orbit:
        z, w = d.antidominant_representative(x)
        assert z == anti[0]
        assert w.act(x) == z
        # idempotence
        z2, w2 = d.antidominant_representative(z)
        assert z2 == z and w2.is_identity()


def test_product_type_datum():
    d = rd.preset("A1xA1")
    assert d.n == 2
    assert len(d.positive_roots) == 2
    assert len(d.highest_roots) == 2
    assert len(d.w0_elements()) == 4


def test_explicit_lattice_with_central_torus():
    # GL2-style: A1 with a rank-2 lattice, one central direction
    d = rd.from_json({"type": "A1", "rank": 1,
                      "lattice_basis": [[1, 1], [1, -1]]})
    assert d.dim == 2
    assert d.in_lattice((2, 0))            # alpha^vee = (2, 0)
    # X/Q^vee is Z: the torsion part is trivial, as omega^vee = (1, 0) is not in X
    assert d.fundamental_group_torsion_reps() == ((0, 0),)


def test_memos_do_not_outlive_their_datum():
    # A2 and B2 on the same explicit lattice, built and freed in turn, so a
    # new datum may reuse the address of the one just collected.
    docs = ((dict(type="A2", rank=2, lattice_basis=[[1, 0], [0, 1]]), 2),
            (dict(type="B2", rank=2, lattice_basis=[[1, 0], [0, 1]]), 3))
    wrong = 0
    gc.freeze()  # keep what earlier tests allocated out of the collections below
    try:
        for _ in range(200):
            for doc, expected in docs:
                gc.collect()
                d = rd.from_json(doc)
                if aw.length(aw.AffineWeylElement(d, (1, -1), d.weyl_identity)) != expected:
                    wrong += 1
    finally:
        gc.unfreeze()
    assert wrong == 0
