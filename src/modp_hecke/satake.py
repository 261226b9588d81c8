"""Attractor-component combinatorics and the mod p Satake transform.

A standard Levi M (a subset J_M of the finite simple roots, together with a
dominant coweight lam vanishing exactly on Phi_M) splits the affine flag
variety into attractor components indexed by W_{M,af} \\ W / W_f.  For each
double coset w there is a unique component whose intersection with the
Schubert scheme of w is closed; the transform sends phi_w to the indicator
sum of that intersection when the component meets W_M, and to zero
otherwise.

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
import itertools

from . import affine_weyl as aw
from .affine_weyl import (AffineWeylElement, CapExceeded, DoubleCosetIndex,
                          Facet, aff_act, element_sort_key, element_to_string,
                          length, reduced_word, simple_system)
from .hecke import HeckeElement, _check_prime
from .root_datum import Coweight, RootDatum, closure


class SatakeError(ValueError):
    pass


class LeviDatum:
    """Semi-standard Levi subgroup data: finite simple indices J_M plus a
    coweight pairing to zero exactly on the Levi roots and positively on the
    other positive roots."""

    __slots__ = ("datum", "j_m", "lam", "phi_m", "w0m", "_hash")

    def __init__(self, datum: RootDatum, j_m, lam: Coweight | None = None):
        self.datum = datum
        self.j_m = tuple(sorted(set(j_m)))
        for i in self.j_m:
            if not 0 <= i < datum.n:
                raise SatakeError(f"invalid finite simple-root index {i}")
        support = set(self.j_m)
        self.phi_m = tuple(rt for rt in datum.positive_roots
                           if all(rt[i] == 0 for i in range(datum.n)
                                  if i not in support))
        if lam is None:
            lam = self._default_lambda()
        if not datum.in_lattice(lam):
            raise SatakeError("lambda is not in the coweight lattice")
        for i in range(datum.n):
            alpha = tuple(int(j == i) for j in range(datum.n))
            v = datum.pair(alpha, lam)
            if i in support and v != 0:
                raise SatakeError("lambda must pair to zero on Levi simple roots")
            if i not in support and v <= 0:
                raise SatakeError("lambda must pair positively outside the Levi")
        self.lam = tuple(lam)

        # W0(M): the parabolic subgroup generated by the Levi simple reflections.
        gens = [datum.simple_reflections[i] for i in self.j_m]
        self.w0m = frozenset(closure([datum.weyl_identity],
                                     lambda w: (g * w for g in gens)))
        self._hash = hash((id(datum), self.j_m, self.lam))

    def _default_lambda(self) -> Coweight:
        # Smallest positive multiple of the sum of fundamental coweights
        # outside J_M that lands in the lattice.
        datum = self.datum
        chi = tuple(0 if i in self.j_m else 1 for i in range(datum.n)) \
            + (0,) * (datum.dim - datum.n)
        for m in range(1, 1000):
            cand = tuple(m * c for c in chi)
            if datum.in_lattice(cand):
                return cand
        raise SatakeError("could not find a Levi cocharacter in the lattice")

    @property
    def is_minimal(self) -> bool:
        return not self.j_m

    def in_w_m(self, w: AffineWeylElement) -> bool:
        """Membership in W_M = X x| W0(M)."""
        return w.finite in self.w0m

    def __eq__(self, other):
        return (isinstance(other, LeviDatum) and self.datum is other.datum
                and self.j_m == other.j_m and self.lam == other.lam)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"LeviDatum(J_M={self.j_m})"


def levi_datum(datum: RootDatum, j_m, lam=None) -> LeviDatum:
    return LeviDatum(datum, j_m, lam)


def minimal_levi(datum: RootDatum) -> LeviDatum:
    return LeviDatum(datum, ())


# -- canonical labels for W_{M,af} \ W / W_f -----------------------------------------


def _min_left_m_coset(levi: LeviDatum, x: AffineWeylElement) -> AffineWeylElement:
    """The unique minimal-length element of W_{M,af} x.

    W_{M,af} is the reflection subgroup generated by the affine reflections
    with vector part in Phi_M; x is minimal in its coset iff no such
    reflection shortens it, and any shortening reflection strictly reduces
    length, so greedy descent reaches the minimum.
    """
    datum = levi.datum
    while True:
        shortened = False
        uinv = x.finite.inverse()
        for beta in levi.phi_m:
            for sign in (1, -1):
                b = beta if sign == 1 else tuple(-c for c in beta)
                bl = datum.pair(b, x.translation)
                ub = uinv.act_root(b)
                # s_{(b,k)} shortens x iff x^{-1}.(b,k) = (u^{-1} b, k + <b, lam_x>)
                # is negative, for (b,k) a positive affine root.
                kmin = 0 if datum.is_positive_root(b) else 1
                kmax = -bl if not datum.is_positive_root(ub) else -bl - 1
                if kmax < kmin:
                    continue
                x = aw.reflection(datum, (b, kmin)) * x
                shortened = True
                break
            if shortened:
                break
        if not shortened:
            return x


class ComponentLabel:
    """Canonical representative of a class in W_{M,af} \\ W / W_f: the
    minimal-length element, ties broken by the global element order."""

    __slots__ = ("levi", "facet", "rep", "_hash")

    def __init__(self, levi: LeviDatum, facet: Facet, rep: AffineWeylElement):
        self.levi = levi
        self.facet = facet
        self.rep = rep
        self._hash = hash((levi, facet, rep))

    def __eq__(self, other):
        return (isinstance(other, ComponentLabel) and self.levi == other.levi
                and self.facet == other.facet and self.rep == other.rep)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"S[{element_to_string(self.rep)}]"


def component_of(w: AffineWeylElement, levi: LeviDatum, facet: Facet) -> ComponentLabel:
    """Label of the attractor component through w."""
    best = min((_min_left_m_coset(levi, w * v) for v in facet.elements),
               key=element_sort_key)
    return ComponentLabel(levi, facet, best)


# -- closed attractor selection ----------------------------------------------------


def _chain_labels(idx: DoubleCosetIndex, levi: LeviDatum, facet: Facet,
                  enumerate_all: bool, cap: int | None = None) -> set:
    word, tau = reduced_word(idx.rep)
    if cap is not None and len(word) > cap:
        raise CapExceeded(f"word length {len(word)} exceeds cap {cap}")
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


def levi_induced_facet(levi: LeviDatum, facet: Facet) -> tuple:
    """W_{M,f} = W_M intersect W_f, as a tuple of elements."""
    return tuple(w for w in facet.elements if levi.in_w_m(w))


def component_has_levi_point(label: ComponentLabel) -> bool:
    """True iff the double coset W_{M,af} rep W_f meets W_M."""
    return any(label.levi.in_w_m(label.rep * v) for v in label.facet.elements)


def _canon_m_coset(levi: LeviDatum, wmf, y: AffineWeylElement) -> AffineWeylElement:
    """Canonical representative of W_{M,f} y W_{M,f} (deterministic minimum)."""
    return min((ay * b for ay in (a * y for a in wmf) for b in wmf), key=element_sort_key)


class LeviHeckeElement:
    """Element of the Levi Hecke algebra H_{M(F) cap K} in the indicator
    basis, indexed by canonical W_{M,f}-double-coset representatives."""

    __slots__ = ("levi", "facet", "prime", "coeffs")

    def __init__(self, levi: LeviDatum, facet: Facet, prime: int, coeffs: dict):
        _check_prime(prime)
        self.levi = levi
        self.facet = facet
        self.prime = prime
        self.coeffs = {y: c % prime for y, c in coeffs.items() if c % prime}

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other):
        return (isinstance(other, LeviHeckeElement) and self.levi == other.levi
                and self.facet == other.facet and self.prime == other.prime
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.levi, self.facet, self.prime,
                     frozenset(self.coeffs.items())))

    def __add__(self, other):
        if (self.levi, self.facet, self.prime) != (other.levi, other.facet, other.prime):
            raise SatakeError("operand mismatch")
        out = dict(self.coeffs)
        for y, c in other.coeffs.items():
            out[y] = out.get(y, 0) + c
        return LeviHeckeElement(self.levi, self.facet, self.prime, out)

    def scale(self, c: int):
        return LeviHeckeElement(self.levi, self.facet, self.prime,
                                {y: v * c for y, v in self.coeffs.items()})

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


class MonoidAlgebraElement:
    """Element of the group algebra F_p[X] on the coweight lattice, the
    minimal-Levi Hecke algebra.  Basis symbols e^z for coweights z."""

    __slots__ = ("datum", "prime", "coeffs")

    def __init__(self, datum: RootDatum, prime: int, coeffs: dict):
        _check_prime(prime)
        self.datum = datum
        self.prime = prime
        self.coeffs = {tuple(z): c % prime for z, c in coeffs.items() if c % prime}

    @classmethod
    def single(cls, datum: RootDatum, prime: int, z: Coweight):
        return cls(datum, prime, {tuple(z): 1})

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other):
        return (isinstance(other, MonoidAlgebraElement) and self.datum is other.datum
                and self.prime == other.prime and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((id(self.datum), self.prime, frozenset(self.coeffs.items())))

    def __add__(self, other):
        out = dict(self.coeffs)
        for z, c in other.coeffs.items():
            out[z] = out.get(z, 0) + c
        return MonoidAlgebraElement(self.datum, self.prime, out)

    def __mul__(self, other):
        out = {}
        for z1, c1 in self.coeffs.items():
            for z2, c2 in other.coeffs.items():
                z = tuple(a + b for a, b in zip(z1, z2))
                out[z] = out.get(z, 0) + c1 * c2
        return MonoidAlgebraElement(self.datum, self.prime, out)

    def __repr__(self):
        if not self.coeffs:
            return "0"
        terms = sorted((self.datum.x_coords(z), c) for z, c in self.coeffs.items())
        return " + ".join(
            (f"{c}*" if c != 1 else "") + "e^t[" + ",".join(map(str, z)) + "]"
            for z, c in terms)


def phi_c_w(label: ComponentLabel, idx: DoubleCosetIndex, levi: LeviDatum,
            facet: Facet, prime: int, cap: int | None = 20000) -> LeviHeckeElement:
    """Indicator sum over the Levi double cosets lying in the component of
    `label` and inside the Schubert scheme of idx."""
    if not component_has_levi_point(label):
        raise SatakeError("component has no Levi point")
    datum = levi.datum
    wmf = levi_induced_facet(levi, facet)
    for h in wmf:
        if any(datum.fundamental_group_class(h.translation)):
            raise SatakeError("W_{M,f} meets a nontrivial Levi component; "
                              "unsupported facet/Levi combination")
    seen = set()
    coeffs = {}
    for v in aw.enumerate_lower_interval(idx, cap):
        for g in facet.elements:
            gv = g * v.rep
            for h in facet.elements:
                y = gv * h
                if not levi.in_w_m(y) or y in seen:
                    continue
                seen.add(y)
                canon = _canon_m_coset(levi, wmf, y)
                if canon in coeffs:
                    continue
                if component_of(canon, levi, facet) == label:
                    coeffs[canon] = 1
    return LeviHeckeElement(levi, facet, prime, coeffs)


def satake_phi(idx: DoubleCosetIndex, levi: LeviDatum, facet: Facet, prime: int,
               cap: int | None = 20000) -> LeviHeckeElement:
    """Transform of a single phi basis element: the indicator of the closed
    attractor intersection, or zero when that component misses the Levi."""
    label = closed_attractor_component(idx, levi, facet)
    if not component_has_levi_point(label):
        return LeviHeckeElement(levi, facet, prime, {})
    return phi_c_w(label, idx, levi, facet, prime, cap)


def satake(a: HeckeElement, levi: LeviDatum, cap: int | None = 20000) -> LeviHeckeElement:
    """F_p-linear extension of satake_phi over the phi basis."""
    if levi.datum is not a.facet.datum:
        raise SatakeError("Levi and element live over different data")
    pa = a.convert("phi", cap)
    out = LeviHeckeElement(levi, a.facet, a.prime, {})
    for idx, c in pa.coeffs.items():
        out = out + satake_phi(idx, levi, a.facet, a.prime, cap).scale(c)
    return out


# -- the special-parahoric picture ------------------------------------------------------


@dataclass(frozen=True)
class SpecialSatakeImage:
    """Description of the image F_p[Lambda_-]: the anti-dominant coweights up
    to a length cap, each paired with its double coset."""

    datum: RootDatum
    facet: Facet
    prime: int
    cap: int
    entries: tuple  # ((coweight, DoubleCosetIndex, length), ...)

    def coweights(self):
        return tuple(z for z, _, _ in self.entries)


def enumerate_antidominant(datum: RootDatum, length_cap: int):
    """Anti-dominant coweights z with ell(t_z) <= length_cap, sorted.

    The coordinate search box is exact on the semisimple part: each simple
    pairing of an anti-dominant z is bounded by the length, and coordinates
    are a rational image of the pairings.  Central directions (which never
    contribute length) are boxed by the cap itself.
    """
    out = []
    radius = _coordinate_radius(datum, length_cap)
    for coords in itertools.product(range(-radius, radius + 1), repeat=datum.dim):
        z = datum.coweight_from_x_coords(coords)
        if datum.is_antidominant(z) and length(aw.translation(datum, z)) <= length_cap:
            out.append(z)
    out.sort(key=lambda z: (length(aw.translation(datum, z)), datum.x_coords(z)))
    return tuple(out)


def _coordinate_radius(datum: RootDatum, length_cap: int) -> int:
    """Box radius r such that every anti-dominant z with ell(t_z) <= cap has
    lattice coordinates within [-r, r]: solve the basis pairings exactly."""
    # For semisimple data the simple pairings are the ambient coordinates,
    # each bounded by the cap, and the lattice coordinates are their image
    # under the inverse basis; take its largest absolute column sum.
    if datum.n == datum.dim:
        norm = max(sum(abs(e) for e in col) for col in datum.x_inverse_cols)
        return norm * length_cap // datum.x_inverse_den + 1
    # Central directions do not affect length; bound them by the cap itself.
    return length_cap


def special_satake_image(facet: Facet, prime: int, length_cap: int = 8,
                         check: bool = True) -> SpecialSatakeImage:
    """The image F_p[Lambda_-] of the special-parahoric transform: the
    anti-dominant coweights up to the length cap with their double cosets.
    With check=True, asserts the transform of each phi_z is exactly e^z."""
    datum = facet.datum
    if not facet.is_special():
        raise SatakeError("facet is not special")
    levi = minimal_levi(datum)
    entries = []
    for z in enumerate_antidominant(datum, length_cap):
        idx = aw.double_coset_rep(aw.translation(datum, z), facet)
        if check:
            image = satake_phi(idx, levi, facet, prime).to_monoid()
            if image != MonoidAlgebraElement.single(datum, prime, z):
                raise SatakeError(f"special transform of t_{z} is not e^z")
        entries.append((z, idx, length(aw.translation(datum, z))))
    return SpecialSatakeImage(datum, facet, prime, length_cap, tuple(entries))


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
    datum = idx.facet.datum
    # Special facet: W_f covers W0, so the translations in the double coset
    # form one W0-orbit; pick the anti-dominant member.
    for v in idx.facet.elements:
        for g in idx.facet.elements:
            y = g * idx.rep * v
            if y.finite.is_identity() and datum.is_antidominant(y.translation):
                return y.translation
    raise SatakeError("class contains no anti-dominant translation")
