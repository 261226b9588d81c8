"""Acceptance suite: one test per RELEASE criterion, each printing a
pass/fail line.  Every expected value here is exact; there are no tolerances
to tune, and the time budgets are generous on a laptop."""

import contextlib
import itertools
import random
import time

from modp_hecke import affine_weyl as aw
from modp_hecke import hecke as hk
from modp_hecke import oracle as orc
from modp_hecke import satake as sat
from modp_hecke.root_datum import preset
from reference import all_reduced_words, proper_levis, specialize_q0_mod_p

SPECIAL_GROUPS = ("A1:sc", "A1:ad", "A2:sc", "C2:sc")


@contextlib.contextmanager
def criterion(num, name, budget_s):
    start = time.time()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num} {name}: FAIL ({time.time() - start:.1f}s)")
        raise
    elapsed = time.time() - start
    status = "PASS" if elapsed < budget_s else f"PASS but over budget {budget_s}s"
    print(f"ACCEPTANCE {num} {name}: {status} ({elapsed:.1f}s)")
    assert elapsed < budget_s


def t_class(datum, facet, z):
    return aw.double_coset_rep(aw.translation(datum, z), facet)


def test_criterion_1_special_satake_isomorphism():
    with criterion(1, "special Satake transform is e^z", 60):
        for spec in SPECIAL_GROUPS:
            d = preset(spec)
            f = aw.hyperspecial(d)
            lev = sat.minimal_levi(d)
            zs = sat.enumerate_antidominant(d, 8)
            assert zs, spec
            for z in zs:
                got = sat.satake_phi(t_class(d, f, z), lev, f, 3).to_monoid()
                assert got == sat.MonoidAlgebraElement.single(d, 3, z), (spec, z)


def test_criterion_2_special_convolution_monoid_law():
    with criterion(2, "special convolution is the anti-dominant monoid", 60):
        for spec in SPECIAL_GROUPS:
            d = preset(spec)
            f = aw.hyperspecial(d)
            zs = sat.enumerate_antidominant(d, 5)
            for z1 in zs:
                for z2 in zs:
                    c1, c2 = t_class(d, f, z1), t_class(d, f, z2)
                    prod, _ = hk.convolve_phi_classes(c1, c2)
                    z12 = tuple(a + b for a, b in zip(z1, z2))
                    assert prod == t_class(d, f, z12), (spec, z1, z2)
                    back, _ = hk.convolve_phi_classes(c2, c1)
                    assert back == prod, (spec, z1, z2)


def test_criterion_3_convolution_oracle_equivalence():
    with criterion(3, "Iwahori convolution matches the q=0 generic oracle", 300):
        for spec in ("A1:sc", "A2:sc"):
            d = preset(spec)
            f = aw.iwahori(d)
            classes = [aw.DoubleCosetIndex(f, w) for w in aw.length_ball(d, 4)]
            for w1 in classes:
                g1 = orc.phi_to_generic(w1)
                for w2 in classes:
                    generic = g1 * orc.phi_to_generic(w2)
                    got, _ = hk.convolve_phi_classes(w1, w2)
                    for p in (2, 3, 5):
                        expanded = specialize_q0_mod_p(generic, p, f).convert("phi")
                        assert expanded == hk.phi_basis_element(got, p), (spec, w1, w2, p)


def test_criterion_4_demazure_word_independence():
    # The fold runs right to left, so fold(R1 ++ R2) = fold of R1 onto
    # fold(R2); checking (a) every reduced word folds to its element and
    # (b) every R1 folded onto every w2 agrees, covers all word pairs.
    with criterion(4, "Demazure product is reduced-word independent", 120):
        for spec in ("A1:sc", "A2:sc", "C2:sc"):
            d = preset(spec)
            sys = aw.simple_system(d)
            ball = aw.length_ball(d, 5)
            words = {}
            for w in ball:
                words[w] = all_reduced_words(w)
                for r in words[w]:
                    assert aw.demazure_product(d, r) == w, (spec, r)
            for w1 in ball:
                for w2 in ball:
                    expected = None
                    for r1 in words[w1]:
                        x = w2
                        for i in reversed(r1):
                            sx = sys.simple(i) * x
                            if aw.length(sx) > aw.length(x):
                                x = sx
                        if expected is None:
                            expected = x
                        else:
                            assert x == expected, (spec, w1, w2, r1)


def test_criterion_5_bruhat_and_length_oracles():
    with criterion(5, "Bruhat and length agree with brute-force oracles", 120):
        for spec in ("A1:sc", "A2:sc", "C2:sc"):
            d = preset(spec)
            ball6 = aw.length_ball(d, 6)
            for u in ball6:
                for w in ball6:
                    assert aw.bruhat_leq(u, w) == orc.brute_bruhat(u, w), (spec, u, w)
            for w in aw.length_ball(d, 8):
                assert aw.length(w) == orc.brute_length(w), (spec, w)
            rng = range(-3, 4)
            for coords in itertools.product(rng, repeat=d.dim):
                t = aw.translation(d, d.coweight_from_x_coords(coords))
                assert aw.length(t) == orc.brute_length(t), (spec, coords)


def test_criterion_6_closed_attractor_uniqueness():
    with criterion(6, "closed attractor is unique and word independent", 300):
        for spec in ("A1:sc", "A2:sc", "C2:sc"):
            d = preset(spec)
            for f in (aw.iwahori(d), aw.hyperspecial(d)):
                classes = {aw.double_coset_rep(w, f) for w in aw.length_ball(d, 6)}
                classes = {c for c in classes if c.length <= 6}
                for lev in proper_levis(d):
                    for idx in classes:
                        chains = sat.enumerate_closed_chains(idx, lev, f)
                        assert chains == {sat.closed_attractor_component(idx, lev, f)}, \
                            (spec, f.indices, lev.j_m, idx)


def test_criterion_7_general_to_special_consistency():
    with criterion(7, "general Satake path agrees with the special fast path", 60):
        for spec in SPECIAL_GROUPS:
            d = preset(spec)
            f = aw.hyperspecial(d)
            lev = sat.minimal_levi(d)
            for z in sat.enumerate_antidominant(d, 8):
                idx = t_class(d, f, z)
                general = sat.satake_phi(idx, lev, f, 5).to_monoid()
                fast = sat.special_satake_fast(idx, 5)
                assert general == fast, (spec, z)


def test_criterion_8_homomorphism_and_injectivity():
    with criterion(8, "transform is multiplicative and injective at special f", 120):
        rng = random.Random(2024)
        d = preset("A2:sc")
        f = aw.hyperspecial(d)
        lev = sat.minimal_levi(d)
        zs = sat.enumerate_antidominant(d, 6)
        classes = [t_class(d, f, z) for z in zs]
        images = {}

        def transform(el):
            return sat.satake(el, lev).to_monoid()

        for _ in range(200):
            a = hk.HeckeElement(f, 3, "phi",
                                {rng.choice(classes): rng.randrange(1, 3)
                                 for _ in range(rng.randrange(1, 3))})
            b = hk.HeckeElement(f, 3, "phi", {rng.choice(classes): 1})
            assert transform(hk.convolve(a, b)) == transform(a) * transform(b)
        for z in zs:
            img = sat.satake_phi(t_class(d, f, z), lev, f, 3).to_monoid()
            key = frozenset(img.coeffs.items())
            assert key not in images, ("collision", z, images.get(key))
            images[key] = z


def test_criterion_9_point_count_congruence():
    with criterion(9, "point counts are 1 mod q with the projective-line value", 60):
        d = preset("A1:sc")
        iwa = aw.iwahori(d)
        s0 = aw.double_coset_rep(aw.parse_element(d, "s0"), iwa)
        assert hk.point_count_polynomial(s0) == (1, 1)
        for spec, fidx in (("A1:sc", ()), ("A1:sc", (1,)), ("A1:ad", (1,)),
                           ("A2:sc", (1, 2)), ("C2:sc", (1, 2))):
            dd = preset(spec)
            f = aw.facet(dd, fidx)
            for w in aw.length_ball(dd, 5):
                coeffs = hk.point_count_polynomial(aw.double_coset_rep(w, f))
                assert coeffs[0] == 1, (spec, fidx, w)
