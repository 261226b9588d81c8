import gc
import random

import pytest

from modp_hecke import affine_weyl as aw
from modp_hecke import hecke as hk
from modp_hecke import root_datum as rd
from modp_hecke import satake as sat


def w0_elements(d):
    """The finite Weyl group, by closure under the simple reflections."""
    return rd.closure([d.weyl_identity], lambda w: (s * w for s in d.simple_reflections))


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
        for w in w0_elements(d):
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
        for w in w0_elements(d):
            assert aw.length(aw.from_finite(d, w)) == len(d.finite_word(w))


@pytest.mark.parametrize("spec", ["A3", "B3", "C3", "D4", "G2", "F4"])
def test_finite_layer_matches_the_matrix_definitions(spec):
    # References read w^-1 on roots through w's own matrix, so they form no
    # inverse: the canonical word takes the smallest i whose root image under
    # w^-1 is negative, and the negated roots are the dense root map.
    d = rd.RootDatum(rd.preset(spec).cartan_datum)
    n = d.n

    def inverse_on_root(w, rt):
        return tuple(sum(rt[i] * w.matrix[i][j] for i in range(n)) for j in range(n))

    def negative(rt):
        return any(c < 0 for c in rt)  # a root is positive or negative

    simple = [tuple(int(j == i) for j in range(n)) for i in range(n)]

    def word_reference(w):
        word = []
        while descents := [i for i, a in enumerate(simple)
                           if negative(inverse_on_root(w, a))]:
            word.append(descents[0])
            w = d.simple_reflections[descents[0]] * w
        return tuple(word)

    one = d.weyl_identity.matrix
    for w in w0_elements(d):
        assert d.finite_word(w) == word_reference(w)
        assert w.inverse_negates() == tuple(negative(inverse_on_root(w, rt))
                                            for rt in d.positive_roots)
        assert rd._mat_mul(w.matrix, w.inverse().matrix) == one
        assert w.inverse().inverse() is w
        for rt in d.positive_roots:
            assert w.inverse().act_root(rt) == inverse_on_root(w, rt)


def test_no_exact_elimination_after_the_datum_is_built(monkeypatch):
    # Lengths, words and inverses of finite elements are read off w.rho_check,
    # so the E8 Satake and Hecke paths run no elimination over the rationals.
    d = rd.RootDatum(rd.preset("E8").cartan_datum)
    f = aw.hyperspecial(d)

    def refuse(*args):
        raise AssertionError("an exact elimination ran after the datum was built")

    monkeypatch.setattr(rd, "Fraction", refuse)
    e, s0 = (aw.double_coset_rep(aw.parse_element(d, t), f) for t in ("e", "s0"))
    image = sat.satake_phi(e, sat.minimal_levi(d), f, 2)
    assert image.to_json()["terms"] == [{"rep": "e", "coeff": 1}]
    prod, witness = hk.convolve_phi_classes(s0, e)
    assert witness.replay() is prod
    assert aw.element_to_string(prod.rep) == "t[-2,-3,-4,-6,-5,-4,-3,-2]"


def is_antidominant(d, z):
    return all(d.pair(rt, z) <= 0 for rt in d.positive_roots)


def antidominant_representative(d, z):
    """The anti-dominant point of the W0-orbit of z and an h in the
    hyperspecial W_f taking z there: chamber(-z) is (y, h) with h(-z) = y
    dominant, so h(z) = -y."""
    y, h = aw.chamber(aw.hyperspecial(d), tuple(-c for c in z))
    return tuple(-c for c in y), h


def test_is_antidominant():
    # a coweight is anti-dominant iff it is its own representative
    d = rd.preset("A1")
    for z, anti in (((0,), True), ((-2,), True), ((2,), False)):  # 0, -+alpha^vee
        assert is_antidominant(d, z) == anti
        assert (antidominant_representative(d, z)[0] == z) == anti


def test_antidominant_representative_a1():
    d = rd.preset("A1")
    z, h = antidominant_representative(d, (-2,))
    assert z == (-2,) and h.is_identity()
    z, h = antidominant_representative(d, (2,))
    assert z == (-2,) and h is aw.from_finite(d, d.simple_reflections[0])
    assert h.finite.act((2,)) == (-2,)


def test_antidominant_representative_orbit_invariant():
    # oracle: enumerate the full W0-orbit and filter for anti-dominance
    d = rd.preset("A2")
    nu = (2, -1)
    orbit = {w.act(nu) for w in w0_elements(d)}
    anti = [x for x in orbit if is_antidominant(d, x)]
    assert len(anti) == 1
    for x in orbit:
        z, h = antidominant_representative(d, x)
        assert z == anti[0]
        assert h.finite.act(x) == z
        # idempotence
        z2, h2 = antidominant_representative(d, z)
        assert z2 == z and h2.is_identity()


def test_product_type_datum():
    d = rd.preset("A1xA1")
    assert d.n == 2
    assert len(d.positive_roots) == 2
    assert len(d.highest_roots) == 2
    assert len(w0_elements(d)) == 4


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
