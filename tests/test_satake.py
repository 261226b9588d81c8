import itertools
import random
import time

import pytest

from modp_hecke import affine_weyl as aw
from modp_hecke import hecke as hk
from modp_hecke import satake as sat
from modp_hecke.root_datum import RootDatum, RootDatumError, closure, from_json, preset
from reference import (aff_act, all_reduced_words, cls, from_finite, in_w_m,
                       is_antidominant, proper_levis, wf_elements)


def facet_classes(datum, facet, cap):
    return sorted({aw.double_coset_rep(w, facet) for w in aw.length_ball(datum, cap)
                   if aw.double_coset_rep(w, facet).length <= cap},
                  key=lambda c: aw.element_sort_key(c.rep))


@pytest.mark.parametrize("spec", ["A6", "E6"])
def test_the_satake_path_does_not_enumerate_w_f(spec, closure_results):
    # The hyperspecial W_f of A6 has 5,040 elements and that of E6 51,840, and
    # no closure reaches that size.  A fresh datum, so no memo answers:
    # partners, Levi points, the generators of W_{M,f} and the fast path all
    # come from chambers.
    d = RootDatum(preset(spec).cartan_datum)
    start = time.perf_counter()
    f = aw.hyperspecial(d)
    e = cls(d, f, "e")
    for levi in (sat.minimal_levi(d), sat.levi_datum(d, (0, 2))):
        label = sat.closed_attractor_component(e, levi, f)
        assert label.is_identity() and sat.component_has_levi_point(label, levi, f)
        assert set(sat.satake_phi(e, levi, f, 2).coeffs) == {aw.identity(d)}
    if spec == "A6":
        t = cls(d, f, "t[-1,0,0,0,0,0]")
        z = d.coweight_from_x_coords((-1,) * 6)  # the CLI's t[-1,-1,-1,-1,-1,-1]
        assert sat.special_satake_fast(t, 2) == sat.MonoidAlgebraElement.single(d, 2, z)
    assert time.perf_counter() - start < 5.0
    assert max(map(len, closure_results), default=0) < {"A6": 5040, "E6": 51840}[spec]


def test_satake_does_not_build_the_interval():
    # The transform walks its image's coset inside the Schubert scheme, not
    # the lower Bruhat interval: on the hyperspecial translation classes of
    # the benchmark sweep (box [-6, 0]^2, length <= 18) no class's interval
    # is built.  The E6 class's interval passes the default cap of 20,000.
    for spec in ("A2", "C2", "G2"):
        d = fresh(spec)
        f = aw.hyperspecial(d)
        for c in itertools.product(range(-6, 1), repeat=2):
            idx = cls(d, f, f"t[{c[0]},{c[1]}]")
            if idx.length <= 18:
                for levi in (sat.minimal_levi(d), sat.levi_datum(d, (0,))):
                    sat.satake_phi(idx, levi, f, 2)
                assert idx.rep._lower is None, (spec, idx)
    d = fresh("E6")
    start = time.perf_counter()
    f = aw.hyperspecial(d)
    idx = cls(d, f, "t[-1,0,0,0,0,0]")
    image = sat.satake_phi(idx, sat.minimal_levi(d), f, 2)
    assert time.perf_counter() - start < 5.0
    assert [aw.element_to_string(y) for y in image.coeffs] == ["t[-1,-2,-2,-3,-2,-1]"]
    assert idx.rep._lower is None


def test_levi_datum_validation():
    d = preset("A2")
    lev = sat.levi_datum(d, (0,))
    alpha0, alpha1 = (1, 0), (0, 1)
    assert d.pair(alpha0, lev.lam) == 0
    assert d.pair(alpha1, lev.lam) > 0


def test_coweights_of_the_wrong_length_are_rejected():
    # (0, 0, 1) once gave a length-0 element printing as t[0,0] that was not
    # the identity.
    d = preset("A2")
    assert not d.in_lattice((0, 0, 1)) and not d.in_lattice((2,))
    with pytest.raises(RootDatumError, match="not in the coweight lattice"):
        aw.translation(d, (0, 0, 1))


@pytest.mark.parametrize("spec", ["E6", "E7", "E8"])
def test_whole_group_levi_does_not_enumerate_w0(spec):
    # W(E6), W(E7) and W(E8) have 51,840, 2,903,040 and 696,729,600
    # elements; W_M is read off lam, so no Weyl group walk may run.
    d = preset(spec)
    start = time.perf_counter()
    levi = sat.levi_datum(d, range(d.n))
    assert in_w_m(levi, from_finite(d, d.simple_reflections[0]))
    assert time.perf_counter() - start < 1.0
    assert len(levi.phi_m) == len(d.positive_roots)


def test_default_lambda_of_large_class_order():
    # The class of chi = sum of the fundamental coweights outside J_M has order
    # lcm(5, 7, 8, 9) = 2520 in X/Q^vee, so lam = 2520 chi and no proper
    # divisor of 2520 takes chi into the lattice.
    d = preset("A4xA6xA7xA8")
    lev = sat.levi_datum(d, (0, 4, 10, 17))
    chi = tuple(int(i not in lev.j_m) for i in range(d.n))
    assert lev.lam == tuple(2520 * c for c in chi)
    for m in (1260, 840, 504, 360):
        assert not d.in_lattice(tuple(m * c for c in chi))


def test_component_of_translations_iwahori():
    # minimal Levi, Iwahori facet: labels of translations separate coweights
    d = preset("A1")
    f = aw.iwahori(d)
    lev = sat.minimal_levi(d)
    t1 = aw.translation(d, (-2,))
    t2 = aw.translation(d, (2,))
    assert sat.component_of(t1, lev, f) != sat.component_of(t2, lev, f)
    assert sat.component_of(t1, lev, f) == sat.component_of(t1, lev, f)


def test_component_constant_on_double_coset():
    for spec, j_m, fidx in (("A1", (), (1,)), ("A2", (0,), (1, 2)),
                            ("C2", (1,), ())):
        d = preset(spec)
        f = aw.facet(d, fidx)
        lev = sat.levi_datum(d, j_m)
        rng = random.Random(5)
        ball = aw.length_ball(d, 4)
        for _ in range(20):
            w = rng.choice(ball)
            base = sat.component_of(w, lev, f)
            # left W_{M,af} moves: finite Levi reflections and Levi affine ones
            for i in lev.j_m:
                m_refl = from_finite(d, d.simple_reflections[i])
                assert sat.component_of(m_refl * w, lev, f) == base
            for beta in lev.phi_m:
                aff = aw.reflection(d, (beta, 1))
                assert sat.component_of(aff * w, lev, f) == base
            for v in wf_elements(f):
                assert sat.component_of(w * v, lev, f) == base


def test_component_separates_cosets_brute():
    # labels agree exactly on W_{M,af}-W_f double cosets (closure brute force)
    d = preset("A2")
    f = aw.facet(d, (1, 2))
    lev = sat.levi_datum(d, (0,))
    ball = aw.length_ball(d, 3)
    gens = [from_finite(d, d.simple_reflections[i]) for i in lev.j_m]
    gens += [aw.reflection(d, (beta, k)) for beta in lev.phi_m for k in (-1, 0, 1)]
    for w in ball[:12]:
        coset = {w}
        frontier = [w]
        while frontier:
            nxt = []
            for x in frontier:
                for g in gens:
                    for y in (g * x,):
                        if aw.length(y) <= 5 and y not in coset:
                            coset.add(y)
                            nxt.append(y)
                for v in wf_elements(f):
                    y = x * v
                    if y not in coset:
                        coset.add(y)
                        nxt.append(y)
            frontier = nxt
        labels = {sat.component_of(x, lev, f) for x in coset}
        assert len(labels) == 1


def test_closed_attractor_point_class():
    d = preset("A1")
    f = aw.iwahori(d)
    lev = sat.minimal_levi(d)
    e = cls(d, f, "e")
    assert sat.closed_attractor_component(e, lev, f).is_identity()


def test_special_case_collapse():
    # at a special facet the closed component of t_z is the component of t_z
    for spec in ("A1", "A1:ad", "A2", "C2"):
        d = preset(spec)
        f = aw.hyperspecial(d)
        lev = sat.minimal_levi(d)
        for z in sat.enumerate_antidominant(d, 8):
            t = aw.translation(d, z)
            idx = aw.double_coset_rep(t, f)
            assert sat.closed_attractor_component(idx, lev, f) \
                == sat.component_of(t, lev, f), (spec, z)


def test_closed_chains_unique_and_match():
    for spec in ("A1", "A2"):
        d = preset(spec)
        for fidx in ((), tuple(aw.simple_system(d).index_of_finite.values())):
            f = aw.facet(d, fidx)
            for lev in proper_levis(d):
                for idx in facet_classes(d, f, 4):
                    chains = sat.enumerate_closed_chains(idx, lev, f)
                    assert chains == {sat.closed_attractor_component(idx, lev, f)}


def test_closed_attractor_word_independent():
    # recompute the label through every reduced word of the representative
    d = preset("A2")
    f = aw.iwahori(d)
    lev = sat.minimal_levi(d)
    sys = aw.simple_system(d)
    for idx in facet_classes(d, f, 4):
        expected = sat.closed_attractor_component(idx, lev, f)
        _, tau = aw.reduced_word(idx.rep)
        for word in all_reduced_words(idx.rep):
            x = aw.identity(d)
            for i in word:
                aroot = aff_act(x, sys.simple_roots[i])
                if d.pair(aroot[0], lev.lam) >= 0:
                    x = x * sys.simple(i)
            assert sat.component_of(x * tau, lev, f) == expected


def test_component_has_levi_point():
    d = preset("A1")
    f = aw.iwahori(d)
    lev = sat.minimal_levi(d)
    e_label = sat.component_of(aw.identity(d), lev, f)
    assert sat.component_has_levi_point(e_label, lev, f)
    s1_label = sat.component_of(aw.parse_element(d, "s1"), lev, f)
    assert not sat.component_has_levi_point(s1_label, lev, f)


def _levi_facet_group(levi, f):
    """The group the canonical generators of W_{M,f} generate."""
    gens = levi.wmf(f).gens
    return closure([aw.identity(f.datum)], lambda w: (w * g for g in gens))


def test_levi_induced_facet():
    d = preset("A2")
    f = aw.facet(d, (1, 2))
    assert len(_levi_facet_group(sat.minimal_levi(d), f)) == 1
    lev = sat.levi_datum(d, (0,))
    wmf = _levi_facet_group(lev, f)
    assert len(wmf) == 2
    assert wmf == {u for u in wf_elements(f) if in_w_m(lev, u)}


def test_levi_induced_facet_improper():
    # M = G: W_{M,f} is all of W_f; a proper Levi of A1xA1 needs a central
    # direction to carry lambda, so G = A1xA1 and M is the first factor
    d2 = preset("A1xA1")
    f2 = aw.facet(d2, (1,))
    lev2 = sat.levi_datum(d2, (0,))
    assert _levi_facet_group(lev2, f2) == set(wf_elements(f2))
    whole = aw.hyperspecial(d2)
    assert _levi_facet_group(sat.levi_datum(d2, (0, 1)), whole) == set(wf_elements(whole))


def test_phi_c_w_examples():
    d = preset("A1")
    f = aw.iwahori(d)
    lev = sat.minimal_levi(d)
    e = cls(d, f, "e")
    lab = sat.component_of(aw.identity(d), lev, f)
    out = sat.phi_c_w(lab, e, lev, f, 3)
    assert out.to_monoid().coeffs == {(0,): 1}
    # special facet, anti-dominant z: a single term e^z
    hyp = aw.facet(d, (1,))
    z = (-2,)
    idx = cls(d, hyp, "t[-1]")
    lab_z = sat.component_of(aw.translation(d, z), lev, hyp)
    out_z = sat.phi_c_w(lab_z, idx, lev, hyp, 3)
    assert out_z.to_monoid() == sat.MonoidAlgebraElement.single(d, 3, z)


def test_phi_c_w_precondition():
    d = preset("A1")
    f = aw.iwahori(d)
    lev = sat.minimal_levi(d)
    s1_label = sat.component_of(aw.parse_element(d, "s1"), lev, f)
    with pytest.raises(sat.SatakeError):
        sat.phi_c_w(s1_label, cls(d, f, "s1"), lev, f, 2)
    # a non-minimal Levi: C2 with Levi {alpha_2}, whose closed component of
    # s0*s1*s2 at the Iwahori facet, s1*s2, has no Levi point
    d = preset("C2")
    f, lev = aw.iwahori(d), sat.levi_datum(d, (1,))
    idx = cls(d, f, "s0*s1*s2")
    label = sat.closed_attractor_component(idx, lev, f)
    assert aw.element_to_string(label) == "s1*s2"
    with pytest.raises(sat.SatakeError, match="component has no Levi point"):
        sat.phi_c_w(label, idx, lev, f, 2)


def test_levi_side_reprs():
    # MonoidAlgebraElement's repr feeds the hecke_mixed digest
    d = preset("A2")
    f = aw.iwahori(d)
    lev, lev1 = sat.minimal_levi(d), sat.levi_datum(d, (0,))
    m = sat.MonoidAlgebraElement(d, 5, {(0, 0): 1, (-1, -1): 2})
    assert repr(m) == "2*e^t[-1,-1] + e^t[0,0]"
    assert repr(sat.MonoidAlgebraElement(d, 5, {})) == "0"
    a = hk.HeckeElement(f, 3, "phi", {cls(d, f, "t[-1,-1]*s1"): 2})
    assert repr(sat.satake(a, lev1)) == \
        "2*1M[t[-1,-1]] + 2*1M[t[-1,-1]*s1] + 2*1M[t[0,-1]] + 2*1M[t[0,-1]*s1]"
    hs = aw.facet(d, (1, 2))
    assert repr(sat.satake_phi(cls(d, hs, "t[-2,-1]"), lev, hs, 3)) == "1M[t[-2,-1]]"
    assert repr(sat.LeviHeckeElement(lev, f, 3, {})) == "0"


def test_satake_preconditions():
    d = preset("A2")
    f = aw.iwahori(d)
    a = hk.phi_basis_element(cls(d, f, "t[-1,-1]*s1"), 3)
    with pytest.raises(sat.SatakeError, match="requires the minimal Levi"):
        sat.satake(a, sat.levi_datum(d, (0,))).to_monoid()
    with pytest.raises(sat.SatakeError, match="different data"):
        sat.satake(a, sat.minimal_levi(RootDatum(d.cartan_datum)))


def test_closed_chains_cap_is_named():
    d = preset("A2")
    f = aw.iwahori(d)
    idx = cls(d, f, "t[-1,-1]*s1")  # reduced word of length 5
    with pytest.raises(aw.CapExceeded, match=r"closed-chain word reached length 5, "
                       r"over the limit 4 set by enumerate_closed_chains\(cap=\)"):
        sat.enumerate_closed_chains(idx, sat.minimal_levi(d), f, cap=4)


def test_mismatched_facet_or_datum_is_rejected():
    # An Iwahori class passed with the hyperspecial facet, or with a Levi of
    # another datum, is an error, not the transform of some other class.
    d = preset("A2")
    f, hs = aw.iwahori(d), aw.hyperspecial(d)
    lev = sat.minimal_levi(d)
    idx = cls(d, f, "t[-1,-1]*s1")
    assert not sat.satake_phi(idx, lev, f, 2).coeffs
    t = cls(d, f, "t[-1,-1]")
    label = sat.closed_attractor_component(t, lev, f)
    other_lev = sat.minimal_levi(RootDatum(d.cartan_datum))
    for levi, facet in ((lev, hs), (other_lev, f)):
        for call in (lambda: sat.satake_phi(idx, levi, facet, 2),
                     lambda: sat.satake_phi(t, levi, facet, 2),
                     lambda: sat.phi_c_w(label, t, levi, facet, 2),
                     lambda: sat.closed_attractor_component(idx, levi, facet),
                     lambda: sat.enumerate_closed_chains(idx, levi, facet)):
            with pytest.raises(sat.SatakeError, match="do not share"):
                call()


def test_satake_phi_iwahori_values():
    d = preset("A1")
    f = aw.iwahori(d)
    lev = sat.minimal_levi(d)
    assert sat.satake_phi(cls(d, f, "e"), lev, f, 2).to_monoid().coeffs == {(0,): 1}
    assert not sat.satake_phi(cls(d, f, "s1"), lev, f, 2).coeffs
    assert sat.satake_phi(cls(d, f, "s0"), lev, f, 2).coeffs
    # a zero case found by scanning small classes is stable
    zeros = [idx for idx in facet_classes(d, f, 4)
             if not sat.satake_phi(idx, lev, f, 2).coeffs]
    assert zeros


def test_satake_phi_special():
    for spec in ("A1", "A2"):
        d = preset(spec)
        f = aw.hyperspecial(d)
        lev = sat.minimal_levi(d)
        for z in sat.enumerate_antidominant(d, 6):
            idx = aw.double_coset_rep(aw.translation(d, z), f)
            assert sat.satake_phi(idx, lev, f, 3).to_monoid() \
                == sat.MonoidAlgebraElement.single(d, 3, z)


def test_satake_linear():
    d = preset("A1")
    f = aw.hyperspecial(d)
    lev = sat.minimal_levi(d)
    z1, z2 = (-2,), (-4,)
    el = hk.HeckeElement(f, 3, "phi", {
        aw.double_coset_rep(aw.translation(d, z1), f): 1,
        aw.double_coset_rep(aw.translation(d, z2), f): 2})
    out = sat.satake(el, lev).to_monoid()
    assert out.coeffs == {z1: 1, z2: 2}
    zero = hk.HeckeElement(f, 3, "phi", {})
    assert not sat.satake(zero, lev).coeffs
    # 1_{t[-1]} = phi_{t[-1]} - phi_e: at p = 2 the two images add
    one = hk.HeckeElement(f, 2, "indicator", {cls(d, f, "t[-1]"): 1})
    assert repr(sat.satake(one, lev)) == "1M[e] + 1M[t[-1]]"


def test_satake_homomorphism_special():
    rng = random.Random(41)
    for spec in ("A1", "A2"):
        d = preset(spec)
        f = aw.hyperspecial(d)
        lev = sat.minimal_levi(d)
        zs = sat.enumerate_antidominant(d, 5)
        classes = [aw.double_coset_rep(aw.translation(d, z), f) for z in zs]
        for _ in range(20):
            a = hk.HeckeElement(f, 3, "phi",
                                {rng.choice(classes): rng.randrange(1, 3),
                                 rng.choice(classes): rng.randrange(1, 3)})
            b = hk.HeckeElement(f, 3, "phi", {rng.choice(classes): 1})
            left = sat.satake(hk.convolve(a, b), lev).to_monoid()
            right = sat.satake(a, lev).to_monoid() * sat.satake(b, lev).to_monoid()
            assert left == right


def test_satake_not_multiplicative_at_iwahori():
    # Multiplicativity is a special-parahoric statement: with the minimal
    # Levi at the A1 Iwahori facet, phi_{s1} * phi_{t[-1]} = phi_{t[-1]} has
    # transform e^{t[-1]}, while the transform of phi_{s1} is zero.
    d = preset("A1")
    f = aw.iwahori(d)
    lev = sat.minimal_levi(d)
    a = hk.phi_basis_element(cls(d, f, "s1"), 2)
    b = hk.phi_basis_element(cls(d, f, "t[-1]"), 2)
    left = sat.satake(hk.convolve(a, b), lev).to_monoid()
    right = sat.satake(a, lev).to_monoid() * sat.satake(b, lev).to_monoid()
    assert left == sat.MonoidAlgebraElement.single(d, 2, d.coweight_from_x_coords((-1,)))
    assert not right.coeffs
    assert left != right


def test_monoid_algebra_ops():
    d = preset("A1")
    a = sat.MonoidAlgebraElement(d, 3, {(-2,): 2, (0,): 1})
    b = sat.MonoidAlgebraElement.single(d, 3, (-2,))
    prod = a * b
    assert prod.coeffs == {(-4,): 2, (-2,): 1}
    s = a + a
    assert s.coeffs == {(-2,): 1, (0,): 2}
    # at p = 2 the cross terms of a square meet and cancel
    m = sat.MonoidAlgebraElement(d, 2, {(-1,): 1, (0,): 1})
    assert repr(m * m) == "e^t[-1] + e^t[0]"


def test_monoid_algebra_operands_must_match():
    d = preset("A1")
    a = sat.MonoidAlgebraElement.single(d, 2, (-2,))
    b = sat.MonoidAlgebraElement.single(d, 3, (-2,))
    c = sat.MonoidAlgebraElement.single(preset("A1xA2"), 2, (-2, 0, 0))
    for x, y in ((a, b), (a, c), (c, a)):
        with pytest.raises(sat.SatakeError, match="operand mismatch"):
            x + y
        with pytest.raises(sat.SatakeError, match="operand mismatch"):
            x * y


def test_special_satake_image_and_fast_path():
    # The image of the special transform is F_p[Lambda_-]: phi of each
    # anti-dominant translation class goes to e^z, by the sweep and by the
    # fast path alike.
    d = preset("A2")
    f = aw.hyperspecial(d)
    lev = sat.minimal_levi(d)
    zs = sat.enumerate_antidominant(d, 6)
    assert (0, 0) in {d.x_coords(z) for z in zs}
    for z in zs:
        t = aw.translation(d, z)
        idx = aw.double_coset_rep(t, f)
        fast = sat.special_satake_fast(idx, 2)
        assert sat.satake_phi(idx, lev, f, 2).to_monoid() == fast
        assert fast == sat.MonoidAlgebraElement.single(d, 2, z)
        assert aw.length(t) == idx.length


def test_special_satake_image_preconditions():
    d = preset("A1")
    idx = aw.double_coset_rep(aw.translation(d, (-2,)), aw.iwahori(d))
    with pytest.raises(sat.SatakeError, match="not special"):
        sat.special_satake_fast(idx, 2)


def test_injectivity_on_lambda_minus():
    d = preset("C2")
    f = aw.hyperspecial(d)
    lev = sat.minimal_levi(d)
    images = {}
    for z in sat.enumerate_antidominant(d, 6):
        idx = aw.double_coset_rep(aw.translation(d, z), f)
        img = sat.satake_phi(idx, lev, f, 2)
        key = frozenset(img.to_monoid().coeffs.items())
        assert key not in images
        images[key] = z


def test_intermediate_levi_consistency():
    # bigger Levi M' still selects the class of t_z as the closed component
    for spec in ("A2", "C2"):
        d = preset(spec)
        f = aw.hyperspecial(d)
        for j in range(d.n):
            lev = sat.levi_datum(d, (j,))
            for z in sat.enumerate_antidominant(d, 6):
                t = aw.translation(d, z)
                idx = aw.double_coset_rep(t, f)
                assert sat.closed_attractor_component(idx, lev, f) \
                    == sat.component_of(t, lev, f)


def test_enumerate_antidominant_a1():
    d = preset("A1")
    zs = sat.enumerate_antidominant(d, 8)
    assert [d.x_coords(z) for z in zs] == [(0,), (-1,), (-2,), (-3,), (-4,)]


def _datum(spec):
    return from_json(spec) if isinstance(spec, dict) else preset(spec)


def _brute_antidominant(d, cap):
    """Every anti-dominant z of the ambient box [-cap, 0]^n (semisimple part)
    plus central coordinates whose lattice coordinates lie in [-cap, cap],
    filtered by the length of t_z."""
    central = [range(-r, r + 1) for r in
               (cap * sum(abs(b[k]) for b in d.x_basis) for k in range(d.n, d.dim))]
    out = []
    for s in itertools.product(range(-cap, 1), repeat=d.n):
        for c in itertools.product(*central):
            z = s + c
            coords = d.x_coords(z)
            if coords is None or (c and max(map(abs, coords)) > cap):
                continue
            ell = aw.length(aw.translation(d, z))
            if ell <= cap:
                out.append((ell, coords, z))
    return tuple(z for _, _, z in sorted(out))


EXPLICIT_A1_CENTRAL = {"type": "A1", "lattice_basis": [[1, 1], [1, -1]]}
EXPLICIT_A1_SPLIT = {"type": "A1", "lattice_basis": [[1, 0], [0, 1]]}
EXPLICIT_A2_CENTRAL = {"type": "A2", "lattice_basis": [[1, 0, 0], [0, 1, 0], [1, 2, 3]]}
EXPLICIT_A1XA1_SKEW = {"type": "A1xA1", "lattice_basis": [[1, 100], [0, 1]]}


@pytest.mark.parametrize("spec, cap", [
    ("A1", 8), ("A2:ad", 6), ("B2:ad", 6), ("G2", 12), ("A3:ad", 10), ("A1xA2:ad", 8),
    (EXPLICIT_A1_CENTRAL, 8), (EXPLICIT_A1_SPLIT, 6), (EXPLICIT_A2_CENTRAL, 4),
    (EXPLICIT_A1XA1_SKEW, 6),
], ids=["A1", "A2:ad", "B2:ad", "G2", "A3:ad", "A1xA2:ad", "A1-explicit-central",
        "A1-explicit-split", "A2-explicit-central", "A1xA1-explicit-skew"])
def test_enumerate_antidominant_matches_brute_force(spec, cap):
    d = _datum(spec)
    assert sat.enumerate_antidominant(d, cap) == _brute_antidominant(d, cap)


@pytest.mark.parametrize("spec, cap, count, timed", [
    ("G2", 80, 66, False), ("A1xA2:ad", 20, 506, False),
    (EXPLICIT_A1_CENTRAL, 8, 117, False), ("A3", 40, 112, True), ("B3", 24, 11, True),
    (EXPLICIT_A1XA1_SKEW, 10, 66, True),
], ids=["G2", "A1xA2:ad", "A1-explicit-central", "A3", "B3", "A1xA1-explicit-skew"])
def test_enumerate_antidominant_counts(spec, cap, count, timed):
    # The walk visits the cone, not a coordinate box: the timed cases took
    # 35-110 s as a box scan (single runs, 2 shared CPUs).
    d = _datum(spec)
    start = time.perf_counter()
    zs = sat.enumerate_antidominant(d, cap)
    elapsed = time.perf_counter() - start
    assert len(zs) == count
    assert all(is_antidominant(d, z) for z in zs)
    if timed:
        assert elapsed < 1.0


def _lattice_box_antidominant(d, cap):
    """Every z with lattice coordinates in [-cap, cap]^dim, kept when it is
    anti-dominant and ell(t_z) <= cap: a reference for data with a central
    direction, where the enumeration bounds exactly those coordinates."""
    out = []
    for coords in itertools.product(range(-cap, cap + 1), repeat=d.dim):
        z = d.coweight_from_x_coords(coords)
        if is_antidominant(d, z):
            ell = aw.length(aw.translation(d, z))
            if ell <= cap:
                out.append((ell, coords, z))
    return tuple(z for _, _, z in sorted(out))


@pytest.mark.parametrize("spec, cap, count", [
    ({"type": "A1", "lattice_basis": [[1, 1], [1, -1]]}, 8, 117),
    ({"type": "A1", "lattice_basis": [[1, 1000], [1, -1000]]}, 8, 117),
    ({"type": "A1", "lattice_basis": [[1, 10000], [1, -10000]]}, 8, 117),
    ({"type": "A2", "lattice_basis": [[1, 0, 0], [0, 1, 0], [1, 2, 3000]]}, 4, 28),
], ids=["A1-entries-1", "A1-entries-1000", "A1-entries-10000", "A2-entries-3000"])
def test_enumerate_antidominant_cost_follows_the_output(spec, cap, count):
    # A scan of the ambient central box |z_k| <= cap * sum_b |b[k]| grows with
    # the basis entries: 3.7 s for the 117 coweights of the A1 case with
    # entries 10000 (single run, 2 shared CPUs).
    d = from_json(spec)
    start = time.perf_counter()
    zs = sat.enumerate_antidominant(d, cap)
    elapsed = time.perf_counter() - start
    assert zs == _lattice_box_antidominant(d, cap)
    assert len(zs) == count
    assert elapsed < 1.0


def test_m_affine_elements_label_identity():
    # anything in W_{M,af} lands in the component of the identity
    d = preset("A2")
    f = aw.facet(d, (1, 2))
    lev = sat.levi_datum(d, (0,))
    e_label = sat.component_of(aw.identity(d), lev, f)
    samples = [from_finite(d, d.simple_reflections[0]),
               aw.reflection(d, ((1, 0), 1)),
               aw.reflection(d, ((1, 0), -2)) * from_finite(d, d.simple_reflections[0])]
    for m in samples:
        assert sat.component_of(m, lev, f) == e_label


def test_special_facet_has_no_zero_case():
    # at a special facet the closed component always meets the Levi
    for spec, fidx in (("A1:sc", (1,)), ("A1:sc", (0,)), ("A2:sc", (1, 2)),
                       ("C2:sc", (0, 1))):
        d = preset(spec)
        f = aw.facet(d, fidx)
        assert f.is_special()
        lev = sat.minimal_levi(d)
        classes = {aw.double_coset_rep(w, f) for w in aw.length_ball(d, 5)}
        for idx in classes:
            label = sat.closed_attractor_component(idx, lev, f)
            assert sat.component_has_levi_point(label, lev, f), (spec, fidx, idx)


def test_other_types_special_behavior():
    # the special-facet picture is uniform across types and Omega fibers
    for spec in ("G2:sc", "B2:sc", "A2:ad"):
        d = preset(spec)
        f = aw.hyperspecial(d)
        lev = sat.minimal_levi(d)
        zs = sat.enumerate_antidominant(d, 6)
        assert zs
        for z in zs:
            idx = aw.double_coset_rep(aw.translation(d, z), f)
            assert sat.satake_phi(idx, lev, f, 2).to_monoid() \
                == sat.MonoidAlgebraElement.single(d, 2, z), (spec, z)
        z1, z2 = zs[0], zs[-1]
        c1 = aw.double_coset_rep(aw.translation(d, z1), f)
        c2 = aw.double_coset_rep(aw.translation(d, z2), f)
        prod, _ = hk.convolve_phi_classes(c1, c2)
        z12 = tuple(a + b for a, b in zip(z1, z2))
        assert prod == aw.double_coset_rep(aw.translation(d, z12), f)


def test_chain_uniqueness_with_omega_fibers():
    d = preset("A2:ad")
    f = aw.iwahori(d)
    lev = sat.minimal_levi(d)
    for w in aw.length_ball(d, 3):
        idx = aw.double_coset_rep(w, f)
        chains = sat.enumerate_closed_chains(idx, lev, f)
        assert chains == {sat.closed_attractor_component(idx, lev, f)}


def test_nonbase_special_vertices_collapse():
    # the collapse and monoid behavior hold at every special vertex, not
    # only the hyperspecial base one
    cases = (("A1:sc", (0,)), ("C2:sc", (0, 1)))
    for spec, fidx in cases:
        d = preset(spec)
        f = aw.facet(d, fidx)
        lev = sat.minimal_levi(d)
        for z in sat.enumerate_antidominant(d, 6):
            t = aw.translation(d, z)
            idx = aw.double_coset_rep(t, f)
            assert sat.closed_attractor_component(idx, lev, f) \
                == sat.component_of(t, lev, f)
            assert sat.satake_phi(idx, lev, f, 2).to_monoid() \
                == sat.MonoidAlgebraElement.single(d, 2, z)


@pytest.mark.parametrize("spec", ["A1:ad", "A2:ad", "B2:ad", "C2", "G2"])
def test_fast_path_at_every_special_facet(spec):
    # every class at a special facet is the class of one anti-dominant t_z,
    # and the fast path finds that z, also at the non-base special vertices
    d = preset(spec)
    lev = sat.minimal_levi(d)
    indices = aw.simple_system(d).indices
    facets = [aw.facet(d, [i for i in indices if i != k]) for k in indices]
    for f in (f for f in facets if f.is_special()):
        for idx in facet_classes(d, f, 4):
            z = sat._antidominant_of_class(idx)
            assert is_antidominant(d, z)
            assert aw.double_coset_rep(aw.translation(d, z), f) == idx
            assert sat.special_satake_fast(idx, 3) == \
                sat.satake_phi(idx, lev, f, 3).to_monoid()


def fresh(spec):
    """A new datum with empty memos, unlike the shared preset."""
    return RootDatum(preset(spec).cartan_datum, spec_string=preset(spec).spec_string)


def test_memo_hit_still_applies_the_cap():
    # With Levi {1} the walk of this class visits 4 right W_{M,f}-cosets:
    # cap=3 raises on the miss, and again on a hit after an uncapped miss;
    # cap=4 passes both.
    d = fresh("A2")
    f, lev = aw.hyperspecial(d), sat.levi_datum(d, (0,))
    idx = cls(d, f, "t[-2,-1]")
    over = "Satake walk reached 4 elements, over the limit 3 set by --cap"
    with pytest.raises(aw.CapExceeded, match=over):
        sat.satake_phi(idx, lev, f, 3, cap=3)
    assert sat.satake_phi(idx, lev, f, 3, cap=4).coeffs
    with pytest.raises(aw.CapExceeded, match=over):
        sat.satake_phi(idx, lev, f, 3, cap=3)
    label = sat.closed_attractor_component(idx, lev, f)
    with pytest.raises(aw.CapExceeded, match=over):
        sat.phi_c_w(label, idx, lev, f, 3, cap=3)
    assert sat.satake_phi(idx, lev, f, 3, cap=4) == sat.satake_phi(idx, lev, f, 3)
    assert aw.enumerate_lower_interval(idx)
    with pytest.raises(aw.CapExceeded, match="--cap"):
        aw.enumerate_lower_interval(idx, cap=1)


def test_a_kept_phi_form_still_applies_the_cap():
    # t[-2,-1] has k = 3 classes below it at the hyperspecial facet: cap=2
    # raises on a fresh conversion to phi, and again once the element keeps
    # its phi form, in convert and in satake alike; so does a convolution's
    # indicator result, which keeps the phi product it came from.
    d = fresh("A2")
    f, lev = aw.hyperspecial(d), sat.minimal_levi(d)
    idx, e = cls(d, f, "t[-2,-1]"), cls(d, f, "e")
    over = "lower interval reached 3 elements, over the limit 2 set by --cap"
    a = hk.HeckeElement(f, 3, "indicator", {idx: 1, e: 2})
    with pytest.raises(aw.CapExceeded, match=over):
        a.convert("phi", cap=2)
    phi = a.convert("phi")
    with pytest.raises(aw.CapExceeded, match=over):
        a.convert("phi", cap=2)
    assert a.convert("phi", cap=3) is phi
    with pytest.raises(aw.CapExceeded, match=over):
        sat.satake(a, lev, cap=2)
    prod = hk.convolve(a, hk.HeckeElement(f, 3, "indicator", {e: 1}))
    assert prod == a
    with pytest.raises(aw.CapExceeded, match=over) as kept:
        prod.convert("phi", cap=2)
    with pytest.raises(aw.CapExceeded) as built:
        hk.HeckeElement(f, 3, "indicator", prod.coeffs).convert("phi", cap=2)
    assert str(kept.value) == str(built.value)
    assert len(aw.enumerate_lower_interval(idx)) == 3


def test_homomorphism_step_work_counts(monkeypatch):
    # One step of the homomorphism check on a fresh A2 datum, as the
    # hecke_mixed benchmark runs it: convolve two indicator elements, then
    # transform both factors and the product.  Counted by test-side
    # wrappers: constructions that check their prime, derived constructions
    # that check nothing, and conversions that expand or back-substitute
    # (not those the kept phi form answers).  A change that does more work
    # fails here; one that does less updates the pin.
    d = fresh("A2")
    f, lev = aw.hyperspecial(d), sat.minimal_levi(d)
    e, x, y = (cls(d, f, t) for t in ("e", "t[-1,-1]", "t[-2,-1]"))
    a = hk.HeckeElement(f, 3, "indicator", {x: 1, y: 2})
    b = hk.HeckeElement(f, 3, "indicator", {e: 1, x: 1})
    counts = dict.fromkeys(("checked", "derived", "converted"), 0)
    check_prime, derived = hk._check_prime, hk.FpCombination._derived.__func__
    convert = hk.HeckeElement.convert

    def checking(p):
        counts["checked"] += 1
        return check_prime(p)

    def deriving(cls_, *args):
        counts["derived"] += 1
        return derived(cls_, *args)

    def converting(self, basis, cap=aw.INTERVAL_CAP):
        if basis != self.basis and (basis == "indicator" or self._phi is None):
            counts["converted"] += 1
        return convert(self, basis, cap)

    monkeypatch.setattr(hk, "_check_prime", checking)
    monkeypatch.setattr(hk.FpCombination, "_derived", classmethod(deriving))
    monkeypatch.setattr(hk.HeckeElement, "convert", converting)
    prod = hk.convolve(a, b)
    sa, sb, sp = (sat.satake(z, lev).to_monoid() for z in (a, b, prod))
    assert sp == sa * sb
    assert tuple(counts.values()) == (0, 11, 3)


def test_memo_hit_still_checks_the_prime():
    d = fresh("A2")
    f, lev = aw.hyperspecial(d), sat.minimal_levi(d)
    idx = cls(d, f, "t[-1,-1]")
    image = sat.satake_phi(idx, lev, f, 2)
    assert sat.satake_phi(idx, lev, f, 3).to_json()["terms"] == image.to_json()["terms"]
    with pytest.raises(hk.HeckeError):
        sat.satake_phi(idx, lev, f, 4)


def test_zero_image_walks_no_interval_on_a_memo_hit():
    # the image of s1 in A1 is zero (test_satake_phi_iwahori_values); its
    # interval has 2 elements, which cap=1 would refuse.  The image of
    # s0*s1*s2 in C2 at the Levi {alpha_2} is zero too
    # (test_phi_c_w_precondition), and its interval has 8 elements.
    for spec, j_m, text in (("A1", (), "s1"), ("C2", (1,), "s0*s1*s2")):
        d = fresh(spec)
        f, lev = aw.iwahori(d), sat.levi_datum(d, j_m)
        idx = cls(d, f, text)
        for _ in range(2):
            assert not sat.satake_phi(idx, lev, f, 2, cap=1).coeffs
        assert d.satake_memo[(idx, lev)] == ((), 0)


def test_the_levi_facet_group_is_built_once(monkeypatch):
    # The W_{M,f} record descends lam itself, the one `chamber` call made at
    # that point (partners descend v^-1(lam), a new tuple): once per facet,
    # however many classes, labels and walks read it.
    d = fresh("C2")
    lev = sat.levi_datum(d, (0,))
    chamber, calls = sat.chamber, []

    def counted(f, x):
        if x is lev.lam:
            calls.append(f)
        return chamber(f, x)

    monkeypatch.setattr(sat, "chamber", counted)
    facets = [aw.facet(d, j) for r in range(3) for j in itertools.combinations(range(3), r)]
    for f in facets:
        for idx in facet_classes(d, f, 3):
            sat.satake_phi(idx, lev, f, 2)
            label = sat.closed_attractor_component(idx, lev, f)
            if sat.component_has_levi_point(label, lev, f):
                sat.phi_c_w(label, idx, lev, f, 2)
        assert calls.count(f) == 1, f
    assert len(calls) == len(facets)
    assert all(type(idx) is aw.DoubleCosetIndex and levi is lev
               for idx, levi in d.satake_memo)


@pytest.mark.parametrize("spec, facet, radius, interned, bruhat, images", [
    ("A2", (), 6, (73, 90), 1912, 256),
    ("C2", (0, 2), 6, (39, 93), 141, 28),
    ("G2", (1, 2), 8, (27, 110), 118, 16)],
    ids=("A2-iwahori", "C2-facet-0-2", "G2-hyperspecial"))
def test_satake_work_counts(spec, facet, radius, interned, bruhat, images):
    # Deterministic work of satake_phi at p = 2 over every class of a length
    # ball, with the minimal Levi, each simple-root Levi and G, on a fresh
    # datum: the elements interned before and after the sweep, and the sizes
    # of bruhat_memo and satake_memo.  A change that does more work fails
    # here; one that does less updates the pin.  The ball is formed on the
    # shared preset, and the fresh datum parses only its class reps, so the
    # count before the sweep holds what parsing formed and every element the
    # sweep forms past that (such as a closed-chain search's) shows.
    shared = aw.facet(preset(spec), facet)
    reps = {aw.element_to_string(aw.double_coset_rep(w, shared).rep)
            for w in aw.length_ball(shared.datum, radius)}
    d = fresh(spec)
    f = aw.facet(d, facet)
    classes = sorted((aw.double_coset_rep(aw.parse_element(d, r), f) for r in sorted(reps)),
                     key=lambda c: aw.element_sort_key(c.rep))
    levis = [sat.levi_datum(d, j) for j in [(), *((i,) for i in range(d.n)), range(d.n)]]
    before = len(d._affine_cache)
    for lev in levis:
        for idx in classes:
            sat.satake_phi(idx, lev, f, 2)
    assert (before, len(d._affine_cache)) == interned
    assert (len(d.bruhat_memo), len(d.satake_memo)) == (bruhat, images)
