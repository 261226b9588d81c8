"""Property tests of the memoized Weyl group arithmetic against its miss
path and against the independent oracles, on random words, and of the
algebraic laws of convolution and the Satake transform on random elements."""

from functools import cache, reduce
import itertools

from hypothesis import example, given
from hypothesis import strategies as st
import pytest

from modp_hecke import affine_weyl as aw
from modp_hecke import hecke
from modp_hecke import oracle
from modp_hecke import root_datum as rd
from modp_hecke import satake as sat
import reference
from reference import (brute_double_coset_rep, finite_facets, generic, generic_coeffs, in_w_m,
                       poly_mul, scale, wf_elements)

SPECS = ("A1", "A2", "C2", "G2", "A3")


@st.composite
def finite_words(draw, spec):
    d = rd.preset(spec)
    return draw(st.lists(st.integers(0, d.n - 1), max_size=12))


@st.composite
def affine_elements(draw, spec, radius=3, letters=8):
    """A lattice translation times a random word in the affine simples."""
    d = rd.preset(spec)
    sys = aw.simple_system(d)
    coords = draw(st.lists(st.integers(-radius, radius), min_size=d.dim, max_size=d.dim))
    word = draw(st.lists(st.sampled_from(sys.indices), max_size=letters))
    w = aw.translation(d, d.coweight_from_x_coords(coords))
    for i in word:
        w = w * sys.elements[i]
    return w


spec_and_words = st.sampled_from(SPECS).flatmap(
    lambda spec: st.tuples(st.just(spec), finite_words(spec), finite_words(spec),
                           finite_words(spec)))


@given(spec_and_words)
def test_memoized_finite_product_matches_matrix_product(case):
    spec, word_a, word_b, word_c = case
    d = rd.preset(spec)

    def memoized(word):
        return reduce(lambda x, i: x * d.simple_reflections[i], word, d.weyl_identity)

    def raw(word):
        return reduce(lambda m, i: reference.mat_mul(m, d.simple_reflections[i].matrix),
                      word, d.weyl_identity.matrix)

    a, b, c = memoized(word_a), memoized(word_b), memoized(word_c)
    assert a.matrix == raw(word_a)
    assert (a * b).matrix == reference.mat_mul(a.matrix, b.matrix)
    assert (a * b) * c is a * (b * c)
    assert a * a.inverse() is d.weyl_identity
    for rt in d.positive_roots:
        assert a.act_root(rt) == reference.act_root(a, rt)


CENTRAL_A1 = rd.from_json({"type": "A1", "rank": 1, "lattice_basis": [[1, 1], [1, -1]]})
PRODUCT_DATA = (rd.preset("A1"), rd.preset("A2:ad"), rd.preset("C2"), rd.preset("G2"),
                CENTRAL_A1)


@st.composite
def elements_from_parts(draw, d):
    """t_lambda u assembled from its two parts, with no affine product; the
    translation is often zero and the finite part often the identity."""
    coords = draw(st.one_of(st.just([0] * d.dim),
                            st.lists(st.integers(-3, 3), min_size=d.dim, max_size=d.dim)))
    word = draw(st.one_of(st.just([]), st.lists(st.integers(0, d.n - 1), max_size=8)))
    u = reduce(lambda x, i: x * d.simple_reflections[i], word, d.weyl_identity)
    return aw.AffineWeylElement(d, d.coweight_from_x_coords(coords), u)


def _affine_matrix(w):
    """The (dim+1) x (dim+1) matrix [[u, lambda], [0, 1]] of t_lambda u."""
    rows = [row + (lam,) for row, lam in zip(w.finite.matrix, w.translation)]
    return tuple(rows) + ((0,) * w.datum.dim + (1,),)


def _matrix_product(a, b):
    return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(len(b)))
                       for j in range(len(b[0]))) for i in range(len(a)))


@st.composite
def kernel_inputs(draw):
    """Two elements of a fresh copy of a datum, so that every memoized kernel
    runs as a miss, a root of either sign and an integer vector of dim
    entries, which need not lie in the lattice."""
    d = rd.RootDatum(draw(st.sampled_from(PRODUCT_DATA)).cartan_datum)
    x, y = draw(elements_from_parts(d)), draw(elements_from_parts(d))
    rt = draw(st.sampled_from(d.positive_roots))
    if draw(st.booleans()):
        rt = tuple(-c for c in rt)
    nu = tuple(draw(st.lists(st.integers(-6, 6), min_size=d.dim, max_size=d.dim)))
    return x, y, rt, nu


@given(kernel_inputs())
def test_integer_kernels_match_their_index_sums(case):
    x, y, rt, nu = case
    d = x.datum
    u, v = x.finite, y.finite
    assert (u * v).matrix == reference.mat_mul(u.matrix, v.matrix)
    assert d.pair(rt, nu) == reference.pair(d, rt, nu)
    assert u.act_root(rt) == reference.act_root(u, rt)
    assert aw.length(x) == reference.length(x)
    assert d.x_coords(nu) == reference.x_coords(d, nu)
    assert d.coweight_from_x_coords(nu) == reference.coweight_from_x_coords(d, nu)


@given(st.sampled_from(PRODUCT_DATA).flatmap(
    lambda d: st.tuples(elements_from_parts(d), elements_from_parts(d))))
def test_affine_product_matches_affine_matrices(case):
    x, y = case
    mx = _affine_matrix(x)
    assert _affine_matrix(x * y) == _matrix_product(mx, _affine_matrix(y))
    one = _affine_matrix(aw.identity(x.datum))
    assert _matrix_product(_affine_matrix(x.inverse()), mx) == one
    assert _matrix_product(mx, _affine_matrix(x.inverse())) == one


@given(st.sampled_from(SPECS).flatmap(affine_elements))
def test_length_matches_alcove_walk(w):
    assert aw.length(w) == oracle.brute_length(w)


@given(st.sampled_from(("A1", "A2:ad", "C2", "G2")).flatmap(
    lambda spec: st.tuples(st.just(spec),
                           st.lists(st.integers(-20, 20), min_size=rd.preset(spec).dim,
                                    max_size=rd.preset(spec).dim))))
def test_x_coords_inverts_coweight_from_x_coords(case):
    spec, coords = case
    d = rd.preset(spec)
    assert d.x_coords(d.coweight_from_x_coords(coords)) == tuple(coords)


def test_x_coords_off_the_lattice():
    sc = rd.preset("A1:sc")                   # X = Z alpha^vee = 2Z
    assert sc.x_coords((1,)) is None
    assert sc.x_coords((2,)) == (1,)
    central = rd.from_json({"type": "A1", "rank": 1,
                            "lattice_basis": [[1, 1], [1, -1]]})
    for coords in ((0, 0), (1, 0), (0, 1), (3, -2), (-5, 7)):
        assert central.x_coords(central.coweight_from_x_coords(coords)) == coords
    assert central.x_coords((1, 0)) is None  # odd coordinate sum
    assert central.x_coords((0, 1)) is None
    assert central.x_coords((1, 1)) == (1, 0)


@given(st.sampled_from(("A1", "A1:ad", "A2", "A2:ad", "C2", "C2:ad", "G2", "B3"))
       .flatmap(affine_elements))
def test_double_coset_rep_matches_the_sweep(w):
    for f in finite_facets(w.datum):
        assert aw.double_coset_rep(w, f).rep is brute_double_coset_rep(w, f)


@pytest.mark.parametrize("spec", ("A1:ad", "A2", "C2", "G2", "B3"))
def test_chamber_matches_the_w_f_sweep(spec):
    """At every finite facet and for every coweight of a small box, chamber
    ends at the one point of the W_f-orbit with <beta_i, y> >= 0, and its h
    is an element of W_f taking x there."""
    d = rd.preset(spec)
    sys = aw.simple_system(d)
    for f in finite_facets(d):
        betas = [sys.simple_roots[i][0] for i in f.indices]
        elements = set(wf_elements(f))
        for x in itertools.product(range(-2, 3), repeat=d.dim):
            y, h = aw.chamber(f, x)
            orbit = {u.finite.act(x) for u in elements}
            assert [z for z in orbit if all(d.pair(b, z) >= 0 for b in betas)] == [y], (f, x)
            assert h in elements and h.finite.act(x) == y, (f, x)


def test_schubert_scheme_is_lower_set_times_parabolic():
    """The union of the double cosets below idx is lower_set(idx.rep) * W_f."""
    facets = [aw.hyperspecial(rd.preset("A2")), aw.hyperspecial(rd.preset("G2")),
              aw.facet(rd.preset("C2"), (0, 2))]  # the last is A1 x A1, not special
    for f in facets:
        for idx in {aw.double_coset_rep(w, f) for w in aw.length_ball(f.datum, 4)}:
            swept = {g * v.rep * h for v in aw.enumerate_lower_interval(idx)
                     for g in wf_elements(f) for h in wf_elements(f)}
            assert swept == {a * u for a in aw.lower_set(idx.rep) for u in wf_elements(f)}


# References for the Satake layer: the enumerations it once made.  W0(M) by
# closure, the minimum of W_{M,af} x by the affine roots of W_{M,af}, a
# component label as its set of left-coset minima, and the canonical
# W_{M,f} double-coset representative as the least of its |W_{M,f}|^2
# products in the global element order.


def _w0m_reference(levi):
    """W0(M), by closure under the Levi simple reflections."""
    d = levi.datum
    gens = [d.simple_reflections[i] for i in levi.j_m]
    return frozenset(rd.closure([d.weyl_identity], lambda w: (g * w for g in gens)))


def _min_left_reference(levi, x):
    """The minimum of W_{M,af} x: while some reflection s_{(b,k)}, b in
    +-Phi_M, shortens x, apply the one with the least k >= 0.  For (b,k) a
    positive affine root it shortens x iff x^{-1}.(b,k) = (u^{-1} b,
    k + <b, lam_x>) is negative."""
    d = levi.datum
    signed = [b for rt in levi.phi_m for b in (rt, tuple(-c for c in rt))]
    positive = lambda rt: all(c >= 0 for c in rt)  # rt is a root, so nonzero
    while True:
        uinv = x.finite.inverse()
        for b in signed:
            kmin = 0 if positive(b) else 1
            kmax = -reference.pair(d, b, x.translation) - positive(reference.act_root(uinv, b))
            if kmin <= kmax:
                x = aw.reflection(d, (b, kmin)) * x
                break
        else:
            return x


def _wmf_reference(levi, facet):
    """W_{M,f} = W_M meet W_f, with W_M membership read off W0(M)."""
    w0m = _w0m_reference(levi)
    return tuple(u for u in wf_elements(facet) if u.finite in w0m)


def _cosets_reference(levi, facet, w):
    """The minima of the left cosets W_{M,af} w v, v in W_f, whose union is
    the class W_{M,af} w W_f."""
    return frozenset(_min_left_reference(levi, w * v) for v in wf_elements(facet))


def _canon_reference(wmf, y):
    """The shortest element of W_{M,f} y W_{M,f}, checked to be the only one."""
    coset = {a * y * b for a in wmf for b in wmf}
    least = min(map(aw.length, coset))
    shortest = [x for x in coset if aw.length(x) == least]
    assert len(shortest) == 1, (y, shortest)
    return shortest[0]


def _swept_phi_c_w(label, idx, levi, facet, prime):
    """phi_c_w by the full sweep over the products of lower_set(idx.rep) x W_f,
    keeping those in W_M, all by the references above."""
    w0m = _w0m_reference(levi)
    wmf = _wmf_reference(levi, facet)
    cosets = _cosets_reference(levi, facet, label)
    coeffs = {}
    for y in {a * u for a in aw.lower_set(idx.rep) for u in wf_elements(facet)}:
        if y.finite in w0m:
            canon = _canon_reference(wmf, y)
            if _min_left_reference(levi, canon) in cosets:
                coeffs[canon] = 1
    return sat.LeviHeckeElement(levi, facet, prime, coeffs)


def _standard_levis(d):
    return [sat.levi_datum(d, j_m) for r in range(d.n + 1)
            for j_m in itertools.combinations(range(d.n), r)]


@pytest.mark.parametrize("spec", ("A1:ad", "A2", "C2", "G2", "B3"))
def test_levi_membership_and_reflections_match_the_enumeration(spec):
    """in_w_m is membership in the W0(M) closure, and the canonical generators
    of W_{M,f} generate the W_{M,f} read off it, for every standard Levi and
    every finite facet."""
    d = rd.preset(spec)
    w0 = _w0m_reference(sat.levi_datum(d, range(d.n)))
    for levi in _standard_levis(d):
        w0m = _w0m_reference(levi)
        assert {u for u in w0 if in_w_m(levi, reference.from_finite(d, u))} == w0m, levi
        for f in finite_facets(d):
            gens = levi.wmf(f).gens
            assert rd.closure([aw.identity(d)], lambda w: (w * g for g in gens)) == \
                set(_wmf_reference(levi, f)), (levi, f)


def _orbit_reflections(levi, facet):
    """Every reflection of W_{M,f}: s_{g^-1 r} for r in the orbit of the
    simple affine roots of W_J under W_J, (y, g) = chamber(facet, lam)."""
    d, sys = levi.datum, aw.simple_system(levi.datum)
    y, g = aw.chamber(facet, levi.lam)
    j = [i for i in facet.indices if d.pair(sys.simple_roots[i][0], y) == 0]
    orbit = rd.closure([sys.simple_roots[i] for i in j],
                       lambda r: (reference.aff_act(sys.elements[i], r) for i in j))
    return {aw.reflection(d, reference.aff_act(g.inverse(), r)) for r in orbit}


def _orbit_canon(reflections, y):
    """The minimum of W_{M,f} y W_{M,f} by descent along every reflection of
    W_{M,f} on either side."""
    return aw.descend(y, lambda x: (z for r in reflections for z in (r * x, x * r)))


GENERATOR_RADII = {"A1:ad": 8, "A2": 6, "A2:ad": 5, "C2": 6, "G2": 6, "A3": 4, "B3": 3,
                   "C3": 3, "A1xA1": 6, "A1xA2:ad": 3}


@pytest.mark.parametrize("spec", GENERATOR_RADII)
def test_w_m_f_generators_are_canonical(spec):
    """For every finite facet and standard Levi, on a fresh datum: (i) g is
    minimal in W_J g, so the g^-1 s_i g are the canonical generators of
    W_{M,f}; (ii) on W_M the double-coset descent along them stops where the
    descent along every reflection of W_{M,f} does; (iii) the walk holds each
    coset by its shortest element."""
    d = rd.RootDatum(rd.preset(spec).cartan_datum)
    radius = GENERATOR_RADII[spec]
    roots = aw.simple_system(d).simple_roots
    ball = aw.length_ball(d, radius)
    for f in finite_facets(d):
        classes = {aw.double_coset_rep(w, f) for w in ball}
        for levi in _standard_levis(d):
            group = levi.wmf(f)
            for i, s in zip(f.indices, f.gens):
                if d.pair(roots[i][0], group.y) == 0:
                    assert aw.length(s * group.g) > aw.length(group.g), (f, levi, s)
            reflections = _orbit_reflections(levi, f)
            for y in ball:
                if in_w_m(levi, y):
                    assert aw.coset_min(y, group.gens, group.gens) is \
                        _orbit_canon(reflections, y), (f, levi, y)
            wmf = _wmf_reference(levi, f)
            for idx in (c for c in classes if c.length <= radius):
                label = sat.closed_attractor_component(idx, levi, f)
                partner = sat._partner(f, levi, label.finite)
                if partner is None:
                    continue
                for z in sat._walk(label * partner, idx, levi, f, aw.INTERVAL_CAP):
                    assert all(aw.length(z * u) > aw.length(z) for u in wmf
                               if not u.is_identity()), (f, levi, idx, z)


@pytest.mark.parametrize("spec, radius", (("A1:ad", 5), ("A2", 4), ("C2", 4), ("G2", 3),
                                          ("B3", 2), ("A1xA2:ad", 2)))
def test_min_left_m_coset_matches_the_affine_root_descent(spec, radius):
    """Descent along the canonical generators of W_{M,af} reaches the
    minimum that the affine roots of W_{M,af} find, for every standard Levi."""
    d = rd.preset(spec)
    ball = aw.length_ball(d, radius)
    for levi in _standard_levis(d):
        for w in ball:
            assert aw.coset_min(w, levi.af_reflections) is \
                _min_left_reference(levi, w), (levi, w)


@given(st.sampled_from(PRODUCT_DATA).flatmap(
    lambda d: st.tuples(elements_from_parts(d), st.data())))
def test_component_label_is_the_minimum_of_its_double_coset(case):
    """A label is the unique minimal-length element of W_{M,af} w W_f: it is
    strictly shorter than every other left-coset minimum of the class, and so
    the least of them in the global order.  Moving w by W_{M,af} reflections
    on the left and by W_f on the right keeps the label and the set of minima;
    the Levi-point test agrees with the set read against W0(M)."""
    w, data = case
    d = w.datum
    for f in finite_facets(d):
        for levi in _standard_levis(d):
            label = sat.component_of(w, levi, f)
            cosets = _cosets_reference(levi, f, w)
            assert label in cosets
            assert all(aw.length(c) > aw.length(label) for c in cosets
                       if c is not label), (f, levi, w)
            a = aw.identity(d)
            if levi.phi_m:
                for beta, k in data.draw(st.lists(st.tuples(st.sampled_from(levi.phi_m),
                                                            st.integers(-3, 3)), max_size=3)):
                    a = aw.reflection(d, (beta, k)) * a
            y = a * w * data.draw(st.sampled_from(wf_elements(f)))
            assert sat.component_of(y, levi, f) == label, (f, levi, y)
            assert _cosets_reference(levi, f, y) == cosets
            w0m = _w0m_reference(levi)
            assert sat.component_has_levi_point(label, levi, f) == \
                any(c.finite in w0m for c in cosets)


SWEEP_LENGTHS = {"A1:ad": 4, "A2": 4, "A2:ad": 3, "C2": 4, "C2:ad": 3, "G2": 4, "A3": 2,
                 "B3": 2}


@pytest.mark.parametrize("spec", SWEEP_LENGTHS)
def test_phi_c_w_matches_the_full_sweep(spec):
    """Every finite facet, every standard Levi (G itself included) and every
    class up to the spec's length; the canonical representative is also
    checked on every element of W_M the sweep meets."""
    d = rd.preset(spec)
    levis = _standard_levis(d)
    radius = SWEEP_LENGTHS[spec]
    for f in finite_facets(d):
        classes = {aw.double_coset_rep(w, f) for w in aw.length_ball(d, radius)}
        for levi in levis:
            wmf = _wmf_reference(levi, f)
            gens = levi.wmf(f).gens
            for idx in (c for c in classes if c.length <= radius):
                label = sat.closed_attractor_component(idx, levi, f)
                if sat.component_has_levi_point(label, levi, f):
                    assert sat.phi_c_w(label, idx, levi, f, 2) == \
                        _swept_phi_c_w(label, idx, levi, f, 2), (f, idx, levi)
                for y in {a * u for a in aw.lower_set(idx.rep) for u in wf_elements(f)}:
                    if in_w_m(levi, y):
                        assert aw.coset_min(y, gens, gens) is \
                            _canon_reference(wmf, y), (f, levi, y)


ASSOCIATIVITY_SPECS = ("A1", "A1:ad", "A2", "A2:ad", "C2", "G2")


def _triples(spec):
    small = affine_elements(spec, radius=2, letters=6)
    return st.tuples(st.sampled_from((aw.iwahori, aw.hyperspecial)), small, small, small)


@given(st.sampled_from(ASSOCIATIVITY_SPECS).flatmap(_triples))
def test_demazure_and_convolution_are_associative(case):
    make_facet, a, b, c = case
    assert reference.demazure_mult(reference.demazure_mult(a, b), c) == \
        reference.demazure_mult(a, reference.demazure_mult(b, c))
    f = make_facet(a.datum)
    x, y, z = (aw.double_coset_rep(w, f) for w in (a, b, c))

    def conv(u, v):
        return hecke.convolve_phi_classes(u, v)[0]

    assert conv(conv(x, y), z) == conv(x, conv(y, z))


# Length balls whose ordered pairs have words of both relative lengths; the
# ad forms have nontrivial Omega.
DECOMPOSITION_BALLS = (("A1:ad", 4), ("A2:ad", 3), ("C2", 3), ("G2", 2))


def _decomposition_reference(a, b):
    """demazure_decomposition as one full fold of word_a ++ word_b."""
    word_a, tau_a = aw.reduced_word(a)
    word_b, tau_b = aw.reduced_word(b)
    tau_a_inv = tau_a.inverse()
    word_a = tuple(aw.omega_conjugate(tau_a_inv, i) for i in word_a)
    return tau_a, word_a, word_b, aw.demazure_product(a.datum, word_a + word_b), tau_b


@pytest.mark.parametrize("spec,radius", DECOMPOSITION_BALLS)
def test_one_sided_fold_matches_the_full_fold(spec, radius):
    ball = aw.length_ball(rd.preset(spec), radius)
    relations = set()
    for a, b in itertools.product(ball, repeat=2):
        tau_a, word_a, word_b, folded, tau_b = aw.demazure_decomposition(a, b)
        want = _decomposition_reference(a, b)
        assert (word_a, word_b) == want[1:3], (a, b)
        assert tau_a is want[0] and folded is want[3] and tau_b is want[4], (a, b)
        relations.add((len(word_a) > len(word_b)) - (len(word_a) < len(word_b)))
    assert relations == {-1, 0, 1}


@pytest.mark.parametrize("spec,radius", DECOMPOSITION_BALLS)
def test_fold_does_not_depend_on_memo_history(spec, radius):
    warm = rd.preset(spec)

    def products(d, reverse=False):
        pairs = list(itertools.product(aw.length_ball(d, radius), repeat=2))
        out = {}
        for a, b in reversed(pairs) if reverse else pairs:
            key = (aw.element_to_string(a), aw.element_to_string(b))
            out[key] = aw.element_to_string(reference.demazure_mult(a, b))
        return out

    first = products(warm, reverse=True)
    fresh = rd.RootDatum(warm.cartan_datum, spec_string=warm.spec_string)
    assert products(fresh) == products(warm) == first


def _results(w, reverse=False):
    """What every layer says about w, as strings and numbers, asked in a
    fixed order or in its reverse."""
    f = aw.hyperspecial(w.datum)
    levi = sat.minimal_levi(w.datum)

    def word():
        word, tau = aw.reduced_word(w)
        return word, aw.element_to_string(tau)

    def satake(p):
        return sat.satake_phi(aw.double_coset_rep(w, f), levi, f, p).to_json()

    def product():
        c = aw.double_coset_rep(w, f)
        out, witness = hecke.convolve_phi_classes(c, c)
        phi = hecke.phi_basis_element(c, 3)
        return (aw.element_to_string(out.rep), witness.to_json(),
                hecke.convolve(phi, phi).to_json())

    steps = {
        "class": lambda: aw.element_to_string(aw.double_coset_rep(w, f).rep),
        "interval": lambda: sorted(aw.element_to_string(v.rep) for v in
                                   aw.enumerate_lower_interval(aw.double_coset_rep(w, f))),
        "leq": lambda: sum(aw.bruhat_leq(v, w) for v in aw.lower_set(w)),
        "length": lambda: aw.length(w),
        "lower": lambda: sorted(aw.element_to_string(v) for v in aw.lower_set(w)),
        "product": product,
        "satake2": lambda: satake(2),
        "satake3": lambda: satake(3),
        "string": lambda: aw.element_to_string(w),
        "word": word,
    }
    return {name: steps[name]() for name in sorted(steps, reverse=reverse)}


@given(st.sampled_from(("A1", "A2", "C2", "G2")).flatmap(
    lambda spec: st.tuples(st.just(spec), st.lists(st.integers(-2, 2), min_size=2,
                                                   max_size=2),
                           st.lists(st.integers(0, 2), max_size=6))))
def test_fresh_and_warm_datum_agree(case):
    spec, coords, word = case
    warm = rd.preset(spec)

    def results_on(d, reverse=False):
        sys = aw.simple_system(d)
        w = aw.translation(d, d.coweight_from_x_coords(coords[:d.dim]))
        for i in word:
            w = w * sys.elements[sys.indices[i % len(sys.indices)]]
        return _results(w, reverse)

    first = results_on(warm)  # fills the memos of the preset, if cold
    fresh = rd.RootDatum(warm.cartan_datum, spec_string=warm.spec_string)
    assert results_on(fresh, reverse=True) == results_on(warm) == first


@cache
def _short_classes(spec, make_facet):
    """The classes of length <= 4, in the global element order.  The cap is
    6 for G2, whose hyperspecial classes of length <= 4 are the unit alone."""
    length_cap = 6 if spec == "G2" else 4
    d = rd.preset(spec)
    f = make_facet(d)
    found = {aw.double_coset_rep(w, f) for w in aw.length_ball(d, length_cap)}
    return f, sorted((c for c in found if c.length <= length_cap),
                     key=lambda c: aw.element_sort_key(c.rep))


def _sparse(f, classes, prime, basis):
    """One to three terms on the given classes, in the given basis."""
    terms = st.lists(st.tuples(st.sampled_from(classes), st.integers(1, prime - 1)),
                     min_size=1, max_size=3)
    return terms.map(lambda ts: hecke.HeckeElement(f, prime, basis, dict(ts)))


def _operands(spec, make_facet, count):
    """`count` sparse elements over one prime; the first half share one
    basis and the second half another."""
    f, classes = _short_classes(spec, make_facet)
    bases = st.sampled_from(("phi", "indicator"))
    return st.tuples(st.sampled_from((2, 3, 5)), bases, bases).flatmap(
        lambda pbb: st.tuples(*(_sparse(f, classes, pbb[0], pbb[1 + 2 * k // count])
                                for k in range(count))))


@given(st.sampled_from(("A1", "A2", "C2", "G2")).flatmap(
    lambda spec: _operands(spec, aw.hyperspecial, 2)))
def test_satake_is_multiplicative_at_special_facets(case):
    a, b = case
    levi = sat.minimal_levi(a.facet.datum)

    def transform(x):
        return sat.satake(x, levi).to_monoid()

    assert transform(a * b) == transform(a) * transform(b)


@given(st.tuples(st.sampled_from(("A1", "A2", "C2")),
                 st.sampled_from((aw.iwahori, aw.hyperspecial))).flatmap(
    lambda sf: _operands(*sf, 4)), st.integers(1, 4))
def test_convolve_is_bilinear(case, c):
    a, a2, b, b2 = case
    conv = hecke.convolve
    assert conv(a + a2, b) == conv(a, b) + conv(a2, b)
    assert conv(a, b + b2) == conv(a, b) + conv(a, b2)
    assert conv(scale(a, c), b) == scale(conv(a, b), c) == conv(a, scale(b, c))


def _as_built(x):
    """x, after checking that it equals what its public constructor builds
    from its space, prime and coefficients, each in 1..p-1."""
    if type(x) is hecke.HeckeElement:
        built = hecke.HeckeElement(x.facet, x.prime, x.basis, x.coeffs)
    elif type(x) is sat.LeviHeckeElement:
        built = sat.LeviHeckeElement(x.levi, x.facet, x.prime, x.coeffs)
    else:
        built = sat.MonoidAlgebraElement(x.datum, x.prime, x.coeffs)
    assert x == built
    assert all(0 < c < x.prime for c in x.coeffs.values())
    return x


@given(st.tuples(st.sampled_from(("A2", "C2")),
                 st.sampled_from((aw.iwahori, aw.hyperspecial))).flatmap(
    lambda sf: _operands(*sf, 2)))
def test_derived_results_are_what_the_public_constructors_build(case):
    # Derived results skip the public constructors' checks; each must still
    # be an element those constructors would build, and satake() must agree
    # with the sum of satake_phi over the phi terms.
    a, b = case
    f, p = a.facet, a.prime
    for x in (a, b):
        for basis in ("phi", "indicator"):
            _as_built(x.convert(basis))
    _as_built(a + b.convert(a.basis))
    _as_built(hecke.convolve(a, b))
    for levi in (sat.minimal_levi(f.datum), sat.levi_datum(f.datum, (0,))):
        image = _as_built(sat.satake(a, levi))
        assert image == sat.LeviHeckeElement(levi, f, p, hecke.sum_terms(
            (y, c * v) for idx, c in a.convert("phi").coeffs.items()
            for y, v in sat.satake_phi(idx, levi, f, p).coeffs.items()))
        _as_built(image + sat.satake(b, levi))
    sa, sb = (_as_built(sat.satake(x, sat.minimal_levi(f.datum)).to_monoid()) for x in (a, b))
    _as_built(sa * sb)
    _as_built(sa + sb)


def _poly_add(a, b):
    out = [x + y for x, y in itertools.zip_longest(a, b, fillvalue=0)]
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def _tuple_product(a, b, d):
    """The generic product with tuple coefficients, one letter of a reduced
    word of each w at a time: T_v T_s = T_vs if vs > v, else
    (q - 1) T_v + q T_vs; the Omega part relabels."""
    sys = aw.simple_system(d)
    out = {}

    def acc(terms, v, p):
        terms[v] = _poly_add(terms.get(v, ()), p)

    for w, p in b.items():
        word, tau = aw.reduced_word(w)
        cur = dict(a)
        for i in word:
            s, nxt = sys.elements[i], {}
            for v, c in cur.items():
                vs = v * s
                if aw.length(vs) > aw.length(v):
                    acc(nxt, vs, c)
                else:
                    acc(nxt, v, poly_mul(c, (-1, 1)))
                    acc(nxt, vs, poly_mul(c, (0, 1)))
            cur = nxt
        for v, c in cur.items():
            acc(out, v * tau, poly_mul(c, p))
    return {v: c for v, c in out.items() if c}


COEFFS = st.lists(st.integers(-4, 4), min_size=1, max_size=3).map(
    lambda c: _poly_add(c, ())).filter(bool)  # nonzero in Z[q], degree <= 2


@st.composite
def generic_terms(draw, d):
    """One to three T_w with Z[q] coefficients of both signs and degree <= 2;
    w is an Omega element (often nontrivial) times up to four affine simples."""
    sys = aw.simple_system(d)

    def element():
        coords = draw(st.lists(st.integers(-1, 1), min_size=d.dim, max_size=d.dim))
        w = aw.omega_element(d, d.coweight_from_x_coords(coords))
        for i in draw(st.lists(st.sampled_from(sys.indices), max_size=4)):
            w = w * sys.elements[i]
        return w

    return {element(): draw(COEFFS) for _ in range(draw(st.integers(1, 3)))}


_AD = PRODUCT_DATA[1]  # A2:ad, where Omega is nontrivial
_S0, _S1, _Y = (aw.parse_element(_AD, w) for w in ("s0", "s1", "t[1,0]*s1"))


@given(st.sampled_from(PRODUCT_DATA).flatmap(
    lambda d: st.tuples(generic_terms(d), generic_terms(d))))
# The right factor is T_y + T_{y s0} with equal coefficients, so the product
# factors (1 + T_s0) off it, whatever the drawn examples do.
@example(({_S1: (1,), aw.identity(_AD): (0, -3)}, {_Y: (2, -1), _Y * _S0: (2, -1)}))
# Negative digits, and coefficients whose packed values are negative.
@example(({_S0: (-4, -4, -4), _Y: (3, -1)}, {_Y * _S0: (-2, -4, 1), _S1: (0, 0, -1)}))
def test_packed_generic_product_matches_tuple_product(case):
    a, b = case
    d = next(iter(a)).datum

    def packed(terms):
        return generic(d, {w: oracle.pack(p) for w, p in terms.items()})

    prod = packed(a) * packed(b)
    assert {v: oracle.unpack(c) for v, c in generic_coeffs(prod).items()} == _tuple_product(a, b, d)


@given(st.sampled_from(PRODUCT_DATA).flatmap(
    lambda d: st.tuples(*(generic_terms(d) for _ in range(4)))))
def test_generic_product_of_products_matches_tuple_product(case):
    # Each operand of the last product is itself a product, so it arrives
    # keyed by step-table numbers.
    a1, a2, b1, b2 = case
    d = next(iter(a1)).datum

    def packed(terms):
        return generic(d, {w: oracle.pack(p) for w, p in terms.items()})

    prod = (packed(a1) * packed(a2)) * (packed(b1) * packed(b2))
    assert {v: oracle.unpack(c) for v, c in generic_coeffs(prod).items()} == _tuple_product(
        _tuple_product(a1, a2, d), _tuple_product(b1, b2, d), d)


@st.composite
def mirrored_products(draw):
    """A datum, a left factor and a right factor for the generic product, as
    term dicts.  The right factor is `generic_terms` mirrored under one or two
    affine simples s in turn: each term y with coefficient c gets its mirror
    y s with the same coefficient, so the product factors (1 + T_s) off it.
    The second s is a right ascent of every term, so the half that is left is
    still invariant under the first s, which comes off too.  In one right
    factor of four each mirror draws its own coefficient, so only the support
    is invariant and nothing may come off.  Either factor may be zero."""
    d = draw(st.sampled_from(PRODUCT_DATA + (rd.preset("A1xA1"),)))
    sys = aw.simple_system(d)
    a = draw(generic_terms(d)) if draw(st.integers(0, 7)) < 7 else {}
    b = draw(generic_terms(d)) if draw(st.integers(0, 7)) < 7 else {}
    exact = draw(st.integers(0, 3)) < 3
    i = draw(st.sampled_from(sys.indices))
    for _ in range(draw(st.integers(1, 2))):
        s, out = sys.elements[i], {}
        for y, c in b.items():
            out[y] = _poly_add(out.get(y, ()), c)
            out[y * s] = _poly_add(out.get(y * s, ()), c if exact else draw(COEFFS))
        b = {y: c for y, c in out.items() if c}
        ups = [j for j in sys.indices
               if all(aw.length(y * sys.elements[j]) > aw.length(y) for y in b)]
        if not ups:
            break
        i = draw(st.sampled_from(ups))
    return d, a, b


@given(mirrored_products())
def test_generic_product_by_a_mirrored_factor_matches_tuple_product(case):
    d, a, b = case
    prod = (generic(d, {w: oracle.pack(p) for w, p in a.items()})
            * generic(d, {w: oracle.pack(p) for w, p in b.items()}))
    assert {v: oracle.unpack(c) for v, c in generic_coeffs(prod).items()} == _tuple_product(a, b, d)


@pytest.mark.parametrize("doc, c", [
    ('{"type":"A1","lattice_basis":[[1,1],[1,-1]]}', (0, 2)),
    ('{"type":"A2","lattice_basis":[[2,-1,0],[-1,2,0],[0,0,1]]}', (0, 0, 1)),
], ids=["A1-central", "A2-central"])
def test_central_translation_shifts_every_answer(doc, c):
    # t_c for a central coweight c has length 0 and commutes with W, so
    # a -> t_c a is an automorphism of each Hecke algebra that moves every
    # class, interval, product and Satake image by t_c and nothing else.
    d = rd.from_json(doc)
    t_c = aw.translation(d, c)
    assert aw.length(t_c) == 0
    levi = sat.minimal_levi(d)
    for f in finite_facets(d):
        classes = sorted({aw.double_coset_rep(w, f) for w in aw.length_ball(d, 3)},
                         key=lambda idx: aw.element_sort_key(idx.rep))

        def shift(idx):
            return aw.double_coset_rep(t_c * idx.rep, f)

        for a in classes:
            assert shift(a).rep is t_c * a.rep
            assert hecke.point_count_polynomial(shift(a)) == hecke.point_count_polynomial(a)
            assert (aw.enumerate_lower_interval(shift(a))
                    == {shift(v) for v in aw.enumerate_lower_interval(a)})
            for b in classes:
                assert (hecke.convolve_phi_classes(shift(a), b)[0]
                        is shift(hecke.convolve_phi_classes(a, b)[0]))
            image = sat.satake_phi(a, levi, f, 2).coeffs
            assert sat.satake_phi(shift(a), levi, f, 2).coeffs == {
                t_c * y: v for y, v in image.items()}
