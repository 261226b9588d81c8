"""Attractor-component combinatorics and the mod p Satake transform.

A standard Levi M (a subset J_M of the finite simple roots, together with a
dominant coweight lam vanishing exactly on Phi_M) splits the affine flag
variety into attractor components indexed by W_{M,af} \\ W / W_f.  For each
double coset w there is a unique component whose intersection with the
Schubert scheme of w is closed; the transform sends phi_w to the indicator
sum of that intersection when the component meets W_M, and to zero
otherwise.  The Levi is its coweight: lam is dominant with stabiliser W0(M),
so W_M is the set of w whose finite part fixes lam, and W0(M) is never
enumerated.  A component is labelled by the unique minimal-length element of
its double coset W_{M,af} w W_f, found by `coset_min`; W_f is not enumerated
either, as the u in W_f that bring w into W_M are read off chamber descents
(`_partner`).  The image of phi_w is found by a walk inside the Schubert
scheme from the one element of its coset that the label gives (`phi_c_w`),
never by the Bruhat interval below w.  A Levi is interned per datum and keeps
one `LeviFacetGroup` per facet: W_{M,f}, held by its canonical generators.
LeviHeckeElement and MonoidAlgebraElement derive from hecke.FpCombination, as
HeckeElement does.

The closed component is found by a greedy flow over any reduced word of the
canonical representative: walking the word left to right with partial
product x, the step letter s_i is taken exactly when the pairing of lam with
the vector part of x(alpha_i) is >= 0.  The sign of this rule is pinned by
the requirement that for a special facet and the minimal Levi the closed
component of an anti-dominant translation t_z is the component of t_z itself
(and it is: see tests); the zero-pairing steps never change the component.
"""

from __future__ import annotations

from dataclasses import dataclass
import functools
import itertools
import math
from operator import le, neg

from . import affine_weyl as aw
from .affine_weyl import (INTERVAL_CAP, AffineWeylElement, CapExceeded, DoubleCosetIndex,
                          Facet, aff_act, bruhat_leq, chamber, coset_min, element_to_string,
                          hyperspecial, min_coset_rep, reduced_word, simple_system)
from .hecke import FpCombination, HeckeElement
from .root_datum import Coweight, RootDatum, _coordinate_functionals, closure, over_cap


class SatakeError(ValueError):
    pass


class LeviDatum:
    """Semi-standard Levi subgroup data: finite simple indices J_M.  lam, the
    least multiple in X of the sum of the fundamental coweights outside J_M,
    pairs to zero exactly on Phi_M and positively on the other positive
    roots, so its stabiliser in W0 is W0(M) (Humphreys, Reflection Groups and
    Coxeter Groups, §1.12).  The canonical generators of W_{M,af},
    `af_reflections`, are s_i (i in J_M) and s_{(-theta, 1)} for theta the
    highest root of each component of Phi_M: the maximal roots in `phi_m`.
    Levis are interned per datum by sorted J_M, as facets are, so equality is
    identity, and the hash is that of J_M."""

    __slots__ = ("datum", "j_m", "lam", "phi_m", "af_reflections", "_hash", "_wmf")

    def __new__(cls, datum: RootDatum, j_m):
        key = tuple(sorted(set(j_m)))
        levi = datum.levis.get(key)
        if levi is None:
            for i in key:
                if not 0 <= i < datum.n:
                    raise SatakeError(f"invalid finite simple-root index {i}")
            levi = object.__new__(cls)
            levi.datum, levi.j_m = datum, key
            levi.phi_m = tuple(rt for rt in datum.positive_roots
                               if all(rt[i] == 0 for i in range(datum.n) if i not in key))
            highest = [rt for rt in levi.phi_m
                       if not any(o != rt and all(map(le, rt, o)) for o in levi.phi_m)]
            levi.af_reflections = tuple(
                [aw.from_finite(datum, datum.simple_reflections[i]) for i in key]
                + [aw.reflection(datum, (tuple(map(neg, rt)), 1)) for rt in highest])
            # lam = m * chi, chi the sum of fundamental coweights outside J_M and
            # m least such that den divides m <chi, col> for each lattice functional.
            chi = [int(i not in key) for i in range(datum.n)] + [0] * (datum.dim - datum.n)
            den, cols = datum.x_inverse_den, datum.x_inverse_cols
            m = den // math.gcd(den, *(sum(c * v for c, v in zip(chi, col)) for col in cols))
            levi.lam = tuple(m * c for c in chi)
            levi._hash, levi._wmf = hash(key), {}
            levi = datum.levis.setdefault(key, levi)
        return levi

    @property
    def is_minimal(self) -> bool:
        return not self.j_m

    def wmf(self, facet: Facet) -> "LeviFacetGroup":
        """The record of W_{M,f} = W_M meet W_f, built once per facet."""
        return self._wmf.get(facet) or self._wmf.setdefault(facet, LeviFacetGroup(self, facet))

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"LeviDatum(J_M={self.j_m})"


class LeviFacetGroup:
    """W_{M,f}, the stabiliser of lam in W_f: g^-1 W_J g for (y, g) =
    chamber(facet, lam), W_J the stabiliser of y, generated by the s_i of the
    facet whose beta_i vanish on y (Humphreys, §1.12).  g is minimal in W_J g,
    so the g^-1 s_i g, `gens`, are the canonical generators of W_{M,f} (Dyer,
    J. Algebra 135, 1990), along which `coset_min` finds a coset's minimum.
    Empty for the minimal Levi (lam regular)."""

    __slots__ = ("y", "g", "gens")

    def __init__(self, levi: LeviDatum, facet: Facet):
        d, roots = levi.datum, simple_system(levi.datum).simple_roots
        self.y, self.g = chamber(facet, levi.lam)
        self.gens = tuple(self.g.inverse() * s * self.g
                          for i, s in zip(facet.indices, facet.gens)
                          if d.pair(roots[i][0], self.y) == 0)


def levi_datum(datum: RootDatum, j_m) -> LeviDatum:
    return LeviDatum(datum, j_m)


def minimal_levi(datum: RootDatum) -> LeviDatum:
    return LeviDatum(datum, ())


# -- canonical labels for W_{M,af} \ W / W_f -----------------------------------------


@dataclass(frozen=True)
class ComponentLabel:
    """A class W_{M,af} \\ W / W_f, held as `rep`, its unique minimal-length
    element, `coset_min` along `af_reflections` on the left and the facet's
    `gens` on the right."""

    levi: LeviDatum
    facet: Facet
    rep: AffineWeylElement

    @functools.cached_property
    def partner(self) -> AffineWeylElement | None:
        """A u in W_f with rep * u in W_M (`_partner`), or None."""
        return _partner(self.facet, self.levi, self.rep.finite)

    def __repr__(self):
        return f"S[{element_to_string(self.rep)}]"


def component_of(w: AffineWeylElement, levi: LeviDatum, facet: Facet) -> ComponentLabel:
    """Label of the attractor component through w: the minimum of W_{M,af} w
    W_f, `coset_min` along the canonical generators of W_{M,af} on the left
    and the simple reflections of W_f on the right."""
    return ComponentLabel(levi, facet, coset_min(w, levi.af_reflections, facet.gens))


# -- closed attractor selection ----------------------------------------------------


def _check_class(idx: DoubleCosetIndex, levi: LeviDatum, facet: Facet):
    if facet is not idx.facet or levi.datum is not facet.datum:
        raise SatakeError("class, Levi and facet do not share one facet and datum")


def _chain_labels(idx: DoubleCosetIndex, levi: LeviDatum, facet: Facet,
                  enumerate_all: bool, cap: int | None = None) -> set:
    _check_class(idx, levi, facet)
    word, tau = reduced_word(idx.rep)
    if cap is not None and len(word) > cap:
        raise CapExceeded(f"closed-chain word reached length {len(word)}, over the "
                          f"limit {cap} set by enumerate_closed_chains(cap=)")
    sys = simple_system(levi.datum)
    labels = set()
    stack = [(0, aw.identity(levi.datum))]
    while stack:
        i, x = stack.pop()
        if i == len(word):
            labels.add(component_of(x * tau, levi, facet))
            continue
        aroot = aff_act(x, sys.simple_roots[word[i]])
        d = levi.datum.pair(aroot[0], levi.lam)
        if d >= 0:
            stack.append((i + 1, x * sys.elements[word[i]]))
        if d < 0 or (d == 0 and enumerate_all):
            stack.append((i + 1, x))
    return labels


def closed_attractor_component(idx: DoubleCosetIndex, levi: LeviDatum,
                               facet: Facet) -> ComponentLabel:
    """Label of the unique closed attractor component of the Schubert scheme
    of idx, via the greedy flow chain (zero-pairing steps take the letter;
    the choice there does not move the label)."""
    (label,) = _chain_labels(idx, levi, facet, enumerate_all=False)
    return label


def enumerate_closed_chains(idx: DoubleCosetIndex, levi: LeviDatum, facet: Facet,
                            cap: int = 24) -> frozenset:
    """Labels of all fully-closed flow chains (both choices explored whenever
    the pairing vanishes).  Uniqueness demands this be a singleton."""
    return frozenset(_chain_labels(idx, levi, facet, enumerate_all=True, cap=cap))


# -- Levi-side Hecke elements ---------------------------------------------------------


def _partner(facet: Facet, levi: LeviDatum, v):
    """A u in W_f with v * u.finite fixing lam, or None.  Then u.finite(lam) =
    v^-1(lam), so u exists iff both have one `chamber` point, and is h^-1 g for
    the descent h of v^-1(lam) and the descent g of lam (`LeviFacetGroup`)."""
    group = levi.wmf(facet)
    y, h = chamber(facet, v.inverse().act(levi.lam))
    return h.inverse() * group.g if y == group.y else None


def component_has_levi_point(label: ComponentLabel) -> bool:
    """True iff the double coset W_{M,af} rep W_f meets W_M: since
    W_{M,af} lies in W_M, iff rep W_f does, iff rep.finite has a partner."""
    return label.partner is not None


class LeviHeckeElement(FpCombination):
    """Element of the Levi Hecke algebra H_{M(F) cap K} in the indicator
    basis, indexed by canonical W_{M,f}-double-coset representatives;
    `space` is (levi, facet)."""

    __slots__ = ()
    error = SatakeError
    levi = property(lambda self: self.space[0])
    facet = property(lambda self: self.space[1])

    def __init__(self, levi: LeviDatum, facet: Facet, prime: int, coeffs: dict):
        super().__init__((levi, facet), prime, coeffs)

    def to_monoid(self) -> "MonoidAlgebraElement":
        if not self.levi.is_minimal:
            raise SatakeError("monoid-algebra form requires the minimal Levi")
        return MonoidAlgebraElement(self.levi.datum, self.prime,
                                    {y.translation: c for y, c in self.coeffs.items()})

    def to_json(self):
        terms = sorted((element_to_string(y), c) for y, c in self.coeffs.items())
        return {"levi": list(self.levi.j_m), "facet": list(self.facet.indices),
                "prime": self.prime,
                "terms": [{"rep": r, "coeff": c} for r, c in terms]}

    def __repr__(self):
        if not self.coeffs:
            return "0"
        terms = sorted((element_to_string(y), c) for y, c in self.coeffs.items())
        return " + ".join(f"{c}*1M[{r}]" if c != 1 else f"1M[{r}]"
                          for r, c in terms)


class MonoidAlgebraElement(FpCombination):
    """Element of the group algebra F_p[X] on the coweight lattice, the
    minimal-Levi Hecke algebra.  Basis symbols e^z for coweights z; `space`
    is (datum,)."""

    __slots__ = ()
    error = SatakeError
    datum = property(lambda self: self.space[0])

    def __init__(self, datum: RootDatum, prime: int, coeffs: dict):
        super().__init__((datum,), prime, {tuple(z): c for z, c in coeffs.items()})

    @classmethod
    def single(cls, datum: RootDatum, prime: int, z: Coweight):
        return cls(datum, prime, {tuple(z): 1})

    def __mul__(self, other):
        self._check_operand(other)
        out = {}
        for z1, c1 in self.coeffs.items():
            for z2, c2 in other.coeffs.items():
                z = tuple(a + b for a, b in zip(z1, z2))
                out[z] = out.get(z, 0) + c1 * c2
        return self._like(out)

    def __repr__(self):
        if not self.coeffs:
            return "0"
        terms = sorted((self.datum.x_coords(z), c) for z, c in self.coeffs.items())
        return " + ".join(
            (f"{c}*" if c != 1 else "") + "e^t[" + ",".join(map(str, z)) + "]"
            for z, c in terms)


def _walk(label: ComponentLabel, idx: DoubleCosetIndex, levi: LeviDatum, facet: Facet,
          cap: int | None) -> set:
    """The right W_{M,f}-cosets of W_{M,af} rep * u inside the Schubert scheme
    S of idx, u the label's partner, each held by its minimum (`coset_min`
    along the canonical generators of W_{M,f} on the right); more than cap of
    them when the walk stopped at the cap (see `phi_c_w`)."""
    gens = levi.wmf(facet).gens

    def inside(z):
        return bruhat_leq(min_coset_rep(z, facet), idx.rep)

    return closure([coset_min(label.rep * label.partner, right=gens)],
                   lambda z: (coset_min(x, right=gens) for r in levi.af_reflections
                              if inside(x := r * z)), cap)


def _image(label: ComponentLabel, idx: DoubleCosetIndex, levi: LeviDatum, facet: Facet,
           cap: int | None) -> tuple:
    """(the canonical W_{M,f} double cosets of the image of `phi_c_w`, the
    number of cosets its walk visited); CapExceeded when that is over cap."""
    if label.partner is None:
        raise SatakeError("component has no Levi point")
    walked = _walk(label, idx, levi, facet, cap)
    if cap is not None and len(walked) > cap:
        raise over_cap("Satake walk", cap)
    gens = levi.wmf(facet).gens
    return tuple({coset_min(z, gens, gens): 1 for z in walked}), len(walked)


def phi_c_w(label: ComponentLabel, idx: DoubleCosetIndex, levi: LeviDatum,
            facet: Facet, prime: int, cap: int | None = INTERVAL_CAP) -> LeviHeckeElement:
    """Indicator sum over the Levi double cosets lying in the component of
    `label` and inside the Schubert scheme of idx, S = lower_set(idx.rep) W_f
    (the subword property splits the interval below idx.rep w_f, a reduced
    product), so z is in S iff min_coset_rep(z) <= idx.rep.  The component
    must meet S, as the closed one does.

    As W_{M,f} lies in W_{M,af}, normal in W_M, the component meets W_M in
    the one coset W_{M,af} rep * u, u the `_partner` of rep; rep * u is in
    S, as S is a lower ideal, right W_f-stable, and rep lies below a point
    of it in rep W_f.  Right translation by the coset's minimum g preserves
    the Bruhat order of W_{M,af} (Dyer, Compositio Math. 78, 1991), so the
    coset meets S in a lower ideal of W_{M,af} times g.  From each x g in it
    but g, a left descent r of x among the canonical generators
    `af_reflections` leads to r x g, still in it; so the walk from rep * u by
    left multiplication by them that never leaves S reaches g, and from g
    all of it.  That intersection is a union of right W_{M,f}-cosets (g is
    in W_M, and S is right W_f-stable), which left multiplication permutes,
    so the walk (`_walk`) visits cosets, one element each.  The image is
    their canonical W_{M,f} double cosets; for the minimal Levi, rep * u
    alone, and for G itself (W_{M,f} = W_f) the W_f-cosets below idx.rep.

    `cap` bounds the cosets the walk visits, as `satake --cap` does in the
    CLI; `satake()` also applies it to the classes below that `convert`
    walks.  Nothing is memoized here: `satake_phi` keeps the image of the
    closed component."""
    _check_class(idx, levi, facet)
    reps, _ = _image(label, idx, levi, facet, cap)
    return LeviHeckeElement(levi, facet, prime, dict.fromkeys(reps, 1))


def satake_phi(idx: DoubleCosetIndex, levi: LeviDatum, facet: Facet, prime: int,
               cap: int | None = INTERVAL_CAP) -> LeviHeckeElement:
    """Transform of a single phi basis element: the indicator of the closed
    attractor intersection, or zero when that component misses the Levi.

    The image of the closed component (its `phi_c_w` representatives and the
    cosets its walk visited) is kept on the datum per (idx, levi), as ((), 0)
    when that component misses the Levi.  The prime is not part of the key:
    every coefficient is 1, so the prime only reduces it, and the element is
    built (and the prime checked) on every call.  `cap` bounds the walk and
    nothing else here (the CLI's `satake --cap` is this cap), on a hit as on
    a miss."""
    _check_class(idx, levi, facet)
    memo = facet.datum.satake_memo
    key = (idx, levi)
    if key not in memo:
        label = closed_attractor_component(idx, levi, facet)
        memo[key] = ((), 0) if label.partner is None else _image(label, idx, levi, facet, cap)
    reps, walked = memo[key]
    if cap is not None and walked > cap:
        raise over_cap("Satake walk", cap)
    return LeviHeckeElement(levi, facet, prime, dict.fromkeys(reps, 1))


def satake(a: HeckeElement, levi: LeviDatum,
           cap: int | None = INTERVAL_CAP) -> LeviHeckeElement:
    """F_p-linear extension of satake_phi over the phi basis.  `cap` bounds
    both the classes below each class that `convert` walks to reach the phi
    basis and each Satake walk."""
    if levi.datum is not a.facet.datum:
        raise SatakeError("Levi and element live over different data")
    out = {}
    for idx, c in a.convert("phi", cap).coeffs.items():
        for y, v in satake_phi(idx, levi, a.facet, a.prime, cap).coeffs.items():
            out[y] = out.get(y, 0) + c * v
    return LeviHeckeElement(levi, a.facet, a.prime, out)


# -- the special-parahoric picture ------------------------------------------------------


def enumerate_antidominant(datum: RootDatum, length_cap: int):
    """Anti-dominant coweights z with ell(t_z) <= length_cap, sorted by
    (ell, lattice coordinates).

    Lambda_- is the cone z[i] <= 0 (i < n), on which ell(t_z) = -sum_i h_i z[i]
    is linear, h_i being the alpha_i-coefficient of 2 rho; so the semisimple
    parts are walked down from 0 one step at a time.  Central directions never
    add length and are kept to lattice coordinates within [-cap, cap]: the
    other dim - n coordinates range over [-cap, cap] and the semisimple part
    fixes those of n pivot basis vectors (ones whose semisimple parts are
    independent), so the work per semisimple part is (2 cap + 1)^(dim - n)
    whatever the basis entries.
    """
    h = [sum(rt[i] for rt in datum.positive_roots) for i in range(datum.n)]

    def down(node):
        ell, s = node
        for i, hi in enumerate(h):
            if ell + hi <= length_cap:
                yield ell + hi, s[:i] + (s[i] - 1,) + s[i + 1:]

    n, basis = datum.n, datum.x_basis
    pivots, (den, cols) = next(
        (p, fn) for p in itertools.combinations(range(datum.dim), n)
        if (fn := _coordinate_functionals([basis[j][:n] for j in p])) is not None)
    free = [j for j in range(datum.dim) if j not in pivots]
    out = []
    for ell, s in closure([(0, (0,) * n)], down):
        for f in itertools.product(range(-length_cap, length_cap + 1), repeat=len(free)):
            rest = [s[i] - sum(c * basis[j][i] for c, j in zip(f, free)) for i in range(n)]
            coords = dict(zip(free, f))
            for j, col in zip(pivots, cols):
                c, rem = divmod(sum(r * v for r, v in zip(rest, col)), den)
                if rem or (free and abs(c) > length_cap):
                    break
                coords[j] = c
            else:
                coords = tuple(coords[j] for j in range(datum.dim))
                out.append((ell, coords, datum.coweight_from_x_coords(coords)))
    return tuple(z for _, _, z in sorted(out))


def special_satake_fast(idx: DoubleCosetIndex, prime: int) -> MonoidAlgebraElement:
    """Fast path at a special facet: phi of an anti-dominant translation class
    maps to the single monoid symbol of its coweight."""
    datum = idx.facet.datum
    if not idx.facet.is_special():
        raise SatakeError("facet is not special")
    z = _antidominant_of_class(idx)
    return MonoidAlgebraElement.single(datum, prime, z)


def _antidominant_of_class(idx: DoubleCosetIndex) -> Coweight:
    """The anti-dominant coweight z with _f(t_z)^f = idx, for special facets."""
    # The minimal Levi's lam is regular, so rep * u is a translation t_mu for
    # u the partner of rep.finite.  At a special facet the translations in the
    # class are the W0-orbit of mu; its anti-dominant point is -chamber(-mu).
    d = idx.facet.datum
    u = _partner(idx.facet, minimal_levi(d), idx.rep.finite)
    mu = tuple(map(neg, (idx.rep * u).translation))
    return tuple(map(neg, chamber(hyperspecial(d), mu)[0]))
