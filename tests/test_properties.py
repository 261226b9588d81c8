"""Property tests of the memoized Weyl group arithmetic against its miss
path and against the independent oracles, on random words."""

from functools import reduce
import itertools

from hypothesis import given
from hypothesis import strategies as st

from modp_hecke import affine_weyl as aw
from modp_hecke import hecke
from modp_hecke import oracle
from modp_hecke import root_datum as rd

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
        return reduce(lambda m, i: rd._mat_mul(m, d.simple_reflections[i].matrix),
                      word, d.weyl_identity.matrix)

    a, b, c = memoized(word_a), memoized(word_b), memoized(word_c)
    assert a.matrix == raw(word_a)
    assert (a * b).matrix == rd._mat_mul(a.matrix, b.matrix)
    assert (a * b) * c is a * (b * c)
    assert a * a.inverse() is d.weyl_identity
    for rt in d.positive_roots:
        assert a.act_root(rt) == tuple(
            sum(rt[i] * a.inverse().matrix[i][j] for i in range(d.n)) for j in range(d.n))


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


def _finite_facets(d):
    """Every facet of a single-component datum: the proper subsets of nodes."""
    indices = aw.simple_system(d).indices
    return [aw.facet(d, J) for r in range(len(indices))
            for J in itertools.combinations(indices, r)]


@given(st.sampled_from(("A1", "A2", "C2", "G2")).flatmap(affine_elements))
def test_double_coset_rep_matches_the_sweep(w):
    for f in _finite_facets(w.datum):
        assert aw.double_coset_rep(w, f).rep == oracle.brute_double_coset_rep(w, f).rep


def test_schubert_scheme_is_lower_set_times_parabolic():
    """The union of the double cosets below idx is lower_set(idx.rep) * W_f."""
    facets = [aw.hyperspecial(rd.preset("A2")), aw.hyperspecial(rd.preset("G2")),
              aw.facet(rd.preset("C2"), (0, 2))]  # the last is A1 x A1, not special
    for f in facets:
        for idx in {aw.double_coset_rep(w, f) for w in aw.length_ball(f.datum, 4)}:
            swept = {g * v.rep * h for v in aw.enumerate_lower_interval(idx)
                     for g in f.elements for h in f.elements}
            assert swept == {a * u for a in aw.lower_set(idx.rep) for u in f.elements}


ASSOCIATIVITY_SPECS = ("A1", "A1:ad", "A2", "A2:ad", "C2", "G2")


def _triples(spec):
    small = affine_elements(spec, radius=2, letters=6)
    return st.tuples(st.sampled_from((aw.iwahori, aw.hyperspecial)), small, small, small)


@given(st.sampled_from(ASSOCIATIVITY_SPECS).flatmap(_triples))
def test_demazure_and_convolution_are_associative(case):
    make_facet, a, b, c = case
    assert aw.demazure_mult(aw.demazure_mult(a, b), c) == \
        aw.demazure_mult(a, aw.demazure_mult(b, c))
    f = make_facet(a.datum)
    x, y, z = (aw.double_coset_rep(w, f) for w in (a, b, c))

    def conv(u, v):
        return hecke.convolve_phi_classes(u, v)[0]

    assert conv(conv(x, y), z) == conv(x, conv(y, z))


def _results(w):
    """What every layer says about w, as strings and numbers."""
    word, tau = aw.reduced_word(w)
    f = aw.hyperspecial(w.datum)
    below = aw.lower_set(w)
    return (aw.element_to_string(w), aw.length(w), word, aw.element_to_string(tau),
            sorted(aw.element_to_string(v) for v in below),
            sum(aw.bruhat_leq(v, w) for v in below),
            aw.element_to_string(aw.double_coset_rep(w, f).rep))


@given(st.sampled_from(("A1", "A2", "C2", "G2")).flatmap(
    lambda spec: st.tuples(st.just(spec), st.lists(st.integers(-2, 2), min_size=2,
                                                   max_size=2),
                           st.lists(st.integers(0, 2), max_size=6))))
def test_fresh_and_warm_datum_agree(case):
    spec, coords, word = case
    warm = rd.preset(spec)

    def results_on(d):
        sys = aw.simple_system(d)
        w = aw.translation(d, d.coweight_from_x_coords(coords[:d.dim]))
        for i in word:
            w = w * sys.elements[sys.indices[i % len(sys.indices)]]
        return _results(w)

    first = results_on(warm)  # fills the memos of the preset, if cold
    fresh = rd.RootDatum(warm.cartan_datum, spec_string=warm.spec_string)
    assert results_on(fresh) == results_on(warm) == first
