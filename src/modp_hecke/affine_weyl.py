"""The extended affine Weyl group W = X x| W0.

Elements are pairs (translation, finite part) multiplying by the semidirect
product law.  The affine simple system consists of the finite simple
reflections plus, for each irreducible component, the reflection
s_0 = t_{theta^vee} s_theta in the wall <theta, x> = 1 of the base alcove
{x : 0 < <alpha, x> < 1 for all positive alpha}.  Length-zero elements form
the subgroup Omega, which permutes the affine simple reflections; every
element factors as (word in affine simples) * (Omega part).  The 0-Hecke
(Demazure) product is one fold, demazure_decomposition, with Omega outside:
the shorter factor's word is folded onto the other factor's Omega-free core.

Affine roots are pairs (beta, k) with beta a root in simple-root coordinates
and k an integer, acting on the coweight space as x -> <beta, x> + k.

Every coset minimum is one `coset_min`: descent along the canonical
generators of reflection subgroups, on the left and then on the right, ends
at the minimum of a one- or two-sided coset (Dyer, J. Algebra 135, 1990;
Bjorner and Brenti, GTM 231, §2.4); the one maximum, that of W_f w, is an
ascent in `double_coset_rep`; and a coweight's orbit point under W_f is one
`chamber` descent, so W_f is never enumerated.  One lifting walk,
`_lower_quotient`, finds the minimal right W_f-coset representatives below
an element: a point count's cells and the classes below a class.

This module keeps no state of its own.  Elements are interned per datum, and
each keeps its length, reduced word, lower Bruhat set, products and
Omega-stripped cores.  Facets are interned in the datum's `facets`, each
with one table of classes, `_classes`: it maps every element asked for, rep
included, to its class, and only `double_coset_rep` makes a class.  Each
class keeps the set of classes below it and its phi products
(`hecke.convolve_phi_classes`); the other memos live on the RootDatum: the
affine simple system and `bruhat_memo`.
"""

from __future__ import annotations

import re
from operator import add, mul, neg

# CapExceeded is also this module's: callers catch it as affine_weyl.CapExceeded.
from .root_datum import (CapExceeded, Coweight, FiniteWeylElement, Root, RootDatum,
                         RootDatumError, closure, over_cap)

AffineRoot = tuple[Root, int]


# Default limit on the classes below a class (`enumerate_lower_interval`), on
# the cells of a point count and on the cosets of a Satake walk.
INTERVAL_CAP = 20000


class AffineWeylElement:
    """t_lambda * u with lambda a lattice coweight and u a finite Weyl element.

    Elements are interned per datum by (translation, finite), as finite ones
    are by their root permutation, so equality is identity and each element
    carries its own memos of `length`, `reduced_word`, `lower_set`, `_cores`
    and products (by right factor).  The hash is that of the pair, so set and
    dict orders do not depend on addresses.  `str` is `element_to_string`.
    """

    __slots__ = ("datum", "translation", "finite", "_hash", "_length", "_word", "_lower",
                 "_products", "_cores")

    def __new__(cls, datum: RootDatum, translation: Coweight, finite: FiniteWeylElement):
        key = (translation, finite)
        el = datum._affine_cache.get(key)
        if el is None:
            el = object.__new__(cls)
            el.datum, el.translation, el.finite = datum, translation, finite
            el._hash, el._products = hash(key), {}
            el._length = el._word = el._lower = el._cores = None
            el = datum._affine_cache.setdefault(key, el)
        return el

    def __hash__(self):
        return self._hash

    def __mul__(self, other: "AffineWeylElement") -> "AffineWeylElement":
        prod = self._products.get(other)
        if prod is None:
            if self.datum is not other.datum:
                raise RootDatumError("datum mismatch")
            lam = self.translation
            if any(other.translation):
                lam = tuple(map(add, lam, self.finite.act(other.translation)))
            prod = self._products[other] = AffineWeylElement(
                self.datum, lam, self.finite * other.finite)
        return prod

    def inverse(self) -> "AffineWeylElement":
        uinv = self.finite.inverse()
        lam = tuple(map(neg, uinv.act(self.translation)))
        return AffineWeylElement(self.datum, lam, uinv)

    def is_identity(self) -> bool:
        return self.finite.is_identity() and not any(self.translation)

    def __str__(self):
        return element_to_string(self)

    def __repr__(self):
        return f"<{element_to_string(self)}>"


def identity(datum: RootDatum) -> AffineWeylElement:
    return AffineWeylElement(datum, datum.zero_coweight(), datum.weyl_identity)


def translation(datum: RootDatum, coweight: Coweight) -> AffineWeylElement:
    if not datum.in_lattice(coweight):
        raise RootDatumError(f"{coweight} is not in the coweight lattice")
    return AffineWeylElement(datum, tuple(coweight), datum.weyl_identity)


def reflection(datum: RootDatum, aroot: AffineRoot) -> AffineWeylElement:
    """Reflection in the affine hyperplane <beta, x> + k = 0, i.e.
    t_{-k beta^vee} s_beta."""
    beta, k = aroot
    lam = tuple(-k * c for c in datum.coroot(beta))
    return AffineWeylElement(datum, lam, datum.reflection(beta))


# -- affine simple system ------------------------------------------------------


class AffineSimpleSystem:
    """Indexing of the affine simple reflections.

    Each irreducible component occupies a contiguous block of indices: the
    block starts with the affine node, followed by the component's finite
    simple reflections.  For a single component this is the usual numbering
    s_0 (affine), s_1 .. s_r (finite).  `index_of_finite` maps each finite
    simple-root index to its node.  Each simple reflection is `reflection` of
    its affine simple root: (-theta, 1) gives s_0 = t_{theta^vee} s_theta, and
    (alpha_i, 0) gives s_i.
    """

    def __init__(self, datum: RootDatum):
        self.datum = datum
        self.index_of_finite = {}
        self.simple_roots: dict[int, AffineRoot] = {}
        self.affine_indices = []
        off = 0
        for rng, theta in zip(datum.component_ranges, datum.highest_roots):
            self.affine_indices.append(off)
            self.simple_roots[off] = (tuple(-c for c in theta), 1)
            for idx, i in enumerate(rng, off + 1):
                self.index_of_finite[i] = idx
                self.simple_roots[idx] = (datum.simple_roots[i], 0)
            off += 1 + len(rng)
        self.elements = {i: reflection(datum, r) for i, r in self.simple_roots.items()}
        self.indices = tuple(sorted(self.simple_roots))
        self._omega_conj_cache: dict[tuple, int] = {}
        self._element_index = {el: i for i, el in self.elements.items()}

    def simple(self, i: int) -> AffineWeylElement:
        if i not in self.elements:
            raise RootDatumError(f"invalid affine simple index {i}")
        return self.elements[i]


def simple_system(datum: RootDatum) -> AffineSimpleSystem:
    if datum.affine_system is None:
        datum.affine_system = AffineSimpleSystem(datum)
    return datum.affine_system


# -- length, words, Bruhat order -------------------------------------------------

def length(w: AffineWeylElement) -> int:
    """Iwahori-Matsumoto closed form, pinned to agree with the alcove-walk
    count for the base alcove 0 < <alpha, x> < 1 (see oracle.brute_length)."""
    val = w._length
    if val is None:
        pos = w.datum.positive_roots
        lam, npos, val = w.translation, len(pos), 0
        for rt, k in zip(pos, w.finite.inv_perm):
            m = sum(map(mul, rt, lam))  # <rt, lam>, as RootDatum.pair
            val += abs(m - 1) if k >= npos else abs(m)  # k >= npos: u^-1 rt < 0
        w._length = val
    return val


def left_descents(w: AffineWeylElement):
    sys = simple_system(w.datum)
    lw = length(w)
    for i in sys.indices:
        if length(sys.elements[i] * w) < lw:
            yield i


def reduced_word(w: AffineWeylElement):
    """(word, tau): w = s_{i1} ... s_{ik} * tau with the word reduced and tau
    of length zero.  Deterministic: smallest left descent at every step."""
    if w._word is not None:
        return w._word
    sys = simple_system(w.datum)
    word = []
    cur = w
    while length(cur) > 0:
        i = next(left_descents(cur), None)
        if i is None:
            raise RootDatumError("positive length element with no left descent")
        word.append(i)
        cur = sys.elements[i] * cur
    w._word = (tuple(word), cur)
    return w._word


def omega_part(w: AffineWeylElement) -> AffineWeylElement:
    return reduced_word(w)[1]


def omega_element(datum: RootDatum, coweight: Coweight) -> AffineWeylElement:
    """The length-zero element of t_mu W_af, for mu in the lattice: the Omega
    part of t_mu, which is the same read on either side as W = W_af x| Omega."""
    return omega_part(translation(datum, coweight))


def omega_conjugate(tau: AffineWeylElement, i: int) -> int:
    """Index j with tau s_i tau^{-1} = s_j."""
    sys = simple_system(tau.datum)
    key = (tau, i)
    j = sys._omega_conj_cache.get(key)
    if j is None:
        conj = tau * sys.simple(i) * tau.inverse()
        j = sys._element_index.get(conj)
        if j is None:
            raise RootDatumError("conjugation does not permute the simple system; "
                                 "is the element length-zero?")
        sys._omega_conj_cache[key] = j
    return j


def bruhat_leq(u: AffineWeylElement, w: AffineWeylElement) -> bool:
    """Bruhat order on W = W_af x| Omega: u tau <= w tau' iff tau = tau' and
    u <= w in W_af.  Strip the smallest left descent s of w off w, and off u
    when it is a descent of u too (the lifting property), until the answer is
    plain; every pair passed on the way gets that answer in `bruhat_memo`.
    Left multiplication by s keeps both Omega parts, so elements in different
    Omega-cosets need no case of their own: the descent ends at l(w) = 0, with
    w its own Omega part, where u is not w and the answer is False."""
    if u.datum is not w.datum:
        raise RootDatumError("datum mismatch")
    memo = u.datum.bruhat_memo
    elements = simple_system(u.datum).elements
    passed = []
    while True:
        if u is w:
            val = True
            break
        lu, lw = length(u), length(w)
        if lu > lw or lw == 0:
            val = False
            break
        key = (u, w)
        val = memo.get(key)
        if val is not None:
            break
        passed.append(key)
        s = elements[next(left_descents(w))]
        su = s * u
        if length(su) < lu:
            u = su
        w = s * w
    for key in passed:
        memo[key] = val
    return val


def lower_set(w: AffineWeylElement) -> frozenset:
    """All v <= w in Bruhat order (within the Omega fiber of w).

    Walks down w > ws > wss ... by smallest right descents to a memo hit or
    a length-zero element, then builds each lower set on the way back up as
    below | below * s.  Every set built is kept on its element.
    """
    sys = simple_system(w.datum)
    passed = []  # (element, s) from w downwards
    while (val := w._lower) is None:
        if (lw := length(w)) == 0:
            val = w._lower = frozenset([w])
            break
        s = next(s for s in map(sys.elements.get, sys.indices) if length(w * s) < lw)
        passed.append((w, s))
        w = w * s
    for x, s in reversed(passed):
        val = x._lower = val | {v * s for v in val}
    return val


# -- Demazure product ---------------------------------------------------------------


def demazure_product(datum: RootDatum, word) -> AffineWeylElement:
    """Greedy 0-Hecke fold: process the word right to left, multiplying only
    when the length goes up."""
    sys = simple_system(datum)
    x, lx = identity(datum), 0
    for i in reversed(tuple(word)):
        if (lsx := length(sx := sys.simple(i) * x)) > lx:
            x, lx = sx, lsx
    return x


def _cores(w: AffineWeylElement):
    """Memoized (tau, word, tau^{-1} w, w tau^{-1}): w = tau * word, tau in Omega."""
    if w._cores is None:
        word, tau = reduced_word(w)
        tau_inv = tau.inverse()
        w._cores = (tau, tuple(omega_conjugate(tau_inv, i) for i in word),
                    tau_inv * w, w * tau_inv)
    return w._cores


def demazure_decomposition(a: AffineWeylElement, b: AffineWeylElement):
    """(tau_a, word_a, word_b, folded, tau_b) with the 0-Hecke product a * b =
    tau_a * folded * tau_b, folded = fold(word_a ++ word_b), a = tau_a * word_a
    and b = word_b * tau_b.  word_a is a's reduced word conjugated by tau_a^{-1};
    Omega permutes the simple reflections, so it commutes with the fold.  The
    fold is associative and a reduced word folds to its own element, so only
    the shorter word is folded onto the other factor's core (`_cores`): word_a
    onto b tau_b^{-1} from the left, last letter first (also on a tie), or
    word_b onto tau_a^{-1} a from the right, first letter first."""
    tau_a, word_a, core_a, _ = _cores(a)
    word_b, tau_b = reduced_word(b)
    elements = simple_system(a.datum).elements
    if len(word_a) <= len(word_b):
        x = _cores(b)[3]
        lx = length(x)
        for i in reversed(word_a):
            if (lsx := length(sx := elements[i] * x)) > lx:
                x, lx = sx, lsx
    else:
        x = core_a
        lx = length(x)
        for i in word_b:
            if (lxs := length(xs := x * elements[i])) > lx:
                x, lx = xs, lxs
    return tau_a, word_a, word_b, x, tau_b


# -- facets and coset representatives -------------------------------------------------


class Facet:
    """A subset J of affine simple indices generating a finite parabolic W_f.

    W_f is finite exactly when J leaves out a node of every component's block
    (its affine node and its finite nodes): a proper subdiagram of a
    connected affine diagram is of finite type.  Facets are interned per
    datum by sorted J, so equality is identity, and the hash is that of J.
    `gens` are the s_i, i in J; W_f itself is never enumerated: computations
    use `coset_min` and `chamber`.  `_classes` is the one table of classes:
    it maps every element `double_coset_rep` was asked for, each class's
    representative included, to its class.
    """

    __slots__ = ("datum", "indices", "gens", "_hash", "_classes")

    def __new__(cls, datum: RootDatum, indices):
        key = tuple(sorted(set(indices)))
        f = datum.facets.get(key)
        if f is None:
            sys = simple_system(datum)
            gens = tuple(map(sys.simple, key))
            for a, rng in zip(sys.affine_indices, datum.component_ranges):
                if set(range(a, a + 1 + len(rng))) <= set(key):
                    raise RootDatumError(
                        f"facet {key} does not generate a finite parabolic")
            f = object.__new__(cls)
            f.datum, f.indices, f.gens = datum, key, gens
            f._hash, f._classes = hash(key), {}
            f = datum.facets.setdefault(key, f)
        return f

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Facet{self.indices}"

    @property
    def is_iwahori(self) -> bool:
        return not self.indices

    def is_special(self) -> bool:
        """True iff W_f projects onto the finite Weyl group: in each component
        block J leaves out exactly one node, and that node has highest-root
        coefficient 1 (the affine node counts 1), the rule for special
        vertices of the base alcove (Iwahori and Matsumoto, Publ. Math. IHES
        25, 1965; Bourbaki, Lie Groups and Lie Algebras, Ch. VI §2)."""
        sys = simple_system(self.datum)
        for a, rng, theta in zip(sys.affine_indices, self.datum.component_ranges,
                                 self.datum.highest_roots):
            marks = (1,) + tuple(theta[i] for i in rng)
            if [m for k, m in enumerate(marks) if a + k not in self.indices] != [1]:
                return False
        return True


def facet(datum: RootDatum, indices) -> Facet:
    return Facet(datum, indices)


def iwahori(datum: RootDatum) -> Facet:
    return facet(datum, ())


def hyperspecial(datum: RootDatum) -> Facet:
    """The facet of all finite simple reflections (the base vertex)."""
    return facet(datum, simple_system(datum).index_of_finite.values())


def element_sort_key(w: AffineWeylElement):
    """Deterministic total order used for canonical tie-breaking."""
    return length(w), w.datum.x_coords(w.translation), w.datum.finite_word(w.finite)


def descend(x, moves, key=None):
    """Follow the first element of moves(x) that lowers key (by default
    `length`, looked up when the descent runs), until none does."""
    key = key or length
    kx = key(x)
    while True:
        for y in moves(x):
            if (ky := key(y)) < kx:
                x, kx = y, ky
                break
        else:
            return x


def coset_min(x: AffineWeylElement, left=(), right=()) -> AffineWeylElement:
    """The minimum of H x K, for H and K the reflection subgroups with
    canonical generators `left` and `right`: descent on the left, which ends
    at the minimum y of H x (Dyer, J. Algebra 135, 1990), then on the right.
    A right step by a simple reflection s keeps y minimal in H y: a reflection
    t of H with l(t y s) < l(y s) < l(y) would give l(t y) < l(y).  So with
    W_f on the right the result is minimal on both sides, which makes it the
    minimum (Bjorner and Brenti, GTM 231, §2.4, for H parabolic;
    `test_component_label_is_the_minimum_of_its_double_coset` for W_{M,af}).
    For W_{M,f}'s canonical generators on both sides, which need not be
    simple, `test_w_m_f_generators_are_canonical` and
    `test_phi_c_w_matches_the_full_sweep` check it."""
    if left:
        x = descend(x, lambda y: (r * y for r in left))
    return descend(x, lambda y: (y * s for s in right))


def min_coset_rep(w: AffineWeylElement, f: Facet) -> AffineWeylElement:
    """The unique minimal-length element of w W_f."""
    return coset_min(w, right=f.gens)


def chamber(f: Facet, x: Coweight):
    """(y, h), h in W_f, y = h.finite(x) with <beta_i, y> >= 0 for the vector
    parts beta_i of f's simple affine roots: they are a base of the roots of
    W_f, so y is the one point of the orbit in that closed chamber (Humphreys,
    Reflection Groups and Coxeter Groups, §1.12)."""
    roots, h = simple_system(f.datum).simple_roots, identity(f.datum)
    walls = [(roots[i][0], s) for i, s in zip(f.indices, f.gens)]
    while True:
        for beta, s in walls:
            if f.datum.pair(beta, x) < 0:
                x, h = s.finite.act(x), s * h
                break
        else:
            return x, h


class DoubleCosetIndex:
    """A class in W_f \\ W / W_f, held by its canonical representative
    _f w^f.  `double_coset_rep` is its one constructor, and
    `DoubleCosetIndex(f, w)` is `double_coset_rep(w, f)` for any element w,
    so a class is interned in its facet by representative and equality is
    identity.  `_below` memoizes `enumerate_lower_interval`, and `_products`
    maps each right class to `hecke.convolve_phi_classes`' (product class,
    witness) with it."""

    __slots__ = ("facet", "rep", "_hash", "_below", "_products")

    def __new__(cls, facet_: Facet, w: AffineWeylElement):
        return double_coset_rep(w, facet_)

    def __hash__(self):
        return self._hash

    @property
    def length(self) -> int:
        return length(self.rep)

    def __repr__(self):
        return f"[{element_to_string(self.rep)}]"


def double_coset_rep(w: AffineWeylElement, f: Facet) -> DoubleCosetIndex:
    """The class of w, held by _f w^f, the longest of the (v w)^f for v in
    W_f.  It is x^f for x the longest element of W_f w, because the right
    W_f-coset of x holds the longest element of the double coset; x is
    reached by ascent on the left.  The only place a class is made: on a miss
    in `f._classes` the class is interned there by representative, and then
    w is recorded with it."""
    idx = f._classes.get(w)
    if idx is None:
        if f.datum is not w.datum:
            raise RootDatumError("datum mismatch")
        longest = descend(w, lambda x: (s * x for s in f.gens), key=lambda x: -length(x))
        rep = min_coset_rep(longest, f)
        idx = object.__new__(DoubleCosetIndex)
        idx.facet, idx.rep, idx._hash = f, rep, hash((f, rep))
        idx._below, idx._products = None, {}
        idx = f._classes.setdefault(w, f._classes.setdefault(rep, idx))
    return idx


def enumerate_lower_interval(idx: DoubleCosetIndex,
                             cap: int = INTERVAL_CAP) -> frozenset:
    """{v in _f W^f : v <= _f w^f}, as canonical double-coset indices: the
    classes of the left-minimal v in [e, m]^f (`_lower_quotient`), m the
    minimum of idx, as classes are ordered by their minima (Bjorner and
    Brenti, GTM 231, §2.5).  The walk stays in [e, m]^f, inside the class's
    cells [e, idx.rep]^f.  idx keeps the set in `_below`.  `cap` bounds the
    classes found and returned, on a memo hit as on a miss, so only the set's
    size decides whether a call raises.  A miss raises before walking when
    l(m) > (cap - 1)(1 + 2N), N the number of positive roots: dropping m's
    first letter gives a class below idx whose minimum is at least
    l(m) - 1 - 2N long (l(w_{0,J}) <= N a side): cap + 1 classes lie below."""
    below = idx._below
    if below is None:
        gens = idx.facet.gens
        m = coset_min(idx.rep, gens, gens)
        if length(m) > (cap - 1) * (1 + 2 * len(m.datum.positive_roots)):
            raise over_cap("lower interval", cap)
        below = set()
        for v in _lower_quotient(m, gens):
            if all(length(g * v) > length(v) for g in gens):
                below.add(idx if v is m else double_coset_rep(v, idx.facet))
                if len(below) > cap:
                    raise over_cap("lower interval", cap)
        below = idx._below = frozenset(below)
    if len(below) > cap:
        raise over_cap("lower interval", cap)
    return below


def _lower_quotient(top: AffineWeylElement, gens):
    """Yield once each v <= top in W^f, the minimal right coset representatives
    of the W_f generated by `gens`, for top in W^f.  From {tau}, for top =
    s_{i1} .. s_{ik} tau reduced, each letter s, last first, adds the s u > u
    in W^f for u found so far: the lifting property (Deodhar, Invent. Math.
    39, 1977; Bjorner and Brenti, GTM 231, Prop. 2.2.7 and §2.5).  By
    Deodhar's lemma such an s u leaves W^f only as u g, g in gens.  The set
    only grows, so a caller counting what it yields can stop at a cap."""
    word, tau = reduced_word(top)
    elements = simple_system(top.datum).elements
    val = {tau}
    yield tau
    for i in reversed(word):
        s = elements[i]
        for u in tuple(val):
            v = s * u
            if v not in val and length(v) > length(u) and all(u * g is not v for g in gens):
                val.add(v)
                yield v


def length_ball(datum: RootDatum, length_cap: int):
    """All elements of length <= cap whose Omega part is torsion (for data
    without central directions this is the full length ball of W)."""
    sys = simple_system(datum)
    taus = [omega_element(datum, rep)
            for rep in datum.fundamental_group_torsion_reps()]
    seen = closure(taus, lambda w: (p for p in (w * sys.elements[i] for i in sys.indices)
                                    if length(p) <= length_cap))
    return sorted(seen, key=element_sort_key)


# -- textual forms ----------------------------------------------------------------------


def element_to_string(w: AffineWeylElement) -> str:
    """Canonical form 't[..]*s<i>*..': lattice coordinates of the translation
    part followed by a reduced word of the finite part (1-based s-indices as
    positioned in the affine simple system)."""
    datum, sys = w.datum, simple_system(w.datum)
    parts = [f"s{sys.index_of_finite[i]}" for i in datum.finite_word(w.finite)]
    if any(w.translation):
        parts.insert(0, "t[" + ",".join(map(str, datum.x_coords(w.translation))) + "]")
    return "*".join(parts) or "e"


# The atoms of an element string: a separator, the identity, a simple
# reflection 's<i>' or bare '<i>', and a translation 't[..]' or word 'w[..]'.
_ATOM = re.compile(r"[*,]|e|s?(-?[0-9]+)|([tw])\[([^\]]*)\]")
_INTEGERS = re.compile(r"(-?[0-9]+(,-?[0-9]+)*)?")


def parse_element(datum: RootDatum, text: str) -> AffineWeylElement:
    """Parse 'e', 't[..]', 's<i>', 'w[i,j,..]' and '*'-products thereof:
    the string, spaces dropped, is a run of `_ATOM` matches, multiplied in
    as read.  Commas may be used instead of '*' between atoms; a bare
    integer is a simple reflection index, as in 's0,1'.  Integers are
    ASCII: an optional '-' and the digits 0-9.
    """
    sys = simple_system(datum)
    s = text.strip().replace(" ", "")
    if not s:
        raise RootDatumError("empty element string")
    out, i = identity(datum), 0
    while i < len(s):
        atom = _ATOM.match(s, i)
        if atom is None:
            raise RootDatumError(f"cannot parse element {text!r} at {i}")
        index, kind, body = atom.groups()
        if kind:
            if not _INTEGERS.fullmatch(body):
                raise RootDatumError(f"cannot parse element {text!r} at {i + 2}")
            nums = [int(v) for v in body.split(",")] if body else []
            if kind == "t":
                out = out * translation(datum, datum.coweight_from_x_coords(nums))
            else:
                for v in nums:
                    out = out * sys.simple(v)
        elif index:
            out = out * sys.simple(int(index))
        i = atom.end()
    return out


def word_form(w: AffineWeylElement) -> str:
    """'s0*s1' style reduced word of the W_af part, with a ':tau' suffix when
    the Omega part is nontrivial."""
    word, tau = reduced_word(w)
    body = "*".join(f"s{i}" for i in word) if word else "e"
    if tau.is_identity():
        return body
    return f"{body}:{element_to_string(tau)}"
