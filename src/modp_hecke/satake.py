"""Attractor-component combinatorics and the mod p Satake transform.

A standard Levi M (a subset J_M of the finite simple roots, together with a
dominant coweight lam vanishing exactly on Phi_M) splits the affine flag
variety into attractor components indexed by W_{M,af} \\ W / W_f.  For each
double coset w there is a unique component whose intersection with the
Schubert scheme of w is closed; the transform sends phi_w to the indicator
sum of that intersection when the component meets W_M, and to zero
otherwise.  A component is labelled by the set of minimal elements of the
left W_{M,af}-cosets it is made of, one per W_{M,af} w v for v in W_f; its
representative is the least of them, so membership and the Levi-point test
each read the set instead of reducing |W_f| products.

The closed component is found by a greedy flow over any reduced word of the
canonical representative: walking the word left to right with partial
product x, the step letter s_i is taken exactly when the pairing of lam with
the vector part of x(alpha_i) is >= 0.  The sign of this rule is pinned by
the requirement that for a special facet and the minimal Levi the closed
component of an anti-dominant translation t_z is the component of t_z itself
(and it is: see tests); the zero-pairing steps never change the component.
"""

from __future__ import annotations

import itertools

from . import affine_weyl as aw
from .affine_weyl import (INTERVAL_CAP, AffineWeylElement, CapExceeded, DoubleCosetIndex,
                          Facet, aff_act, element_sort_key, element_to_string,
                          reduced_word, simple_system)
from .hecke import HeckeElement, _check_prime
from .root_datum import Coweight, RootDatum, _coordinate_functionals, closure


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
    """A class W_{M,af} \\ W / W_f, held as its set of left-coset minima: the
    class of w is the union of the left cosets W_{M,af} w v (v in W_f), each
    with a unique minimal element, and y lies in the class iff the minimum of
    W_{M,af} y is in `cosets`.  `rep`, the least of them in the global element
    order, is the canonical representative; labels compare by `rep`."""

    __slots__ = ("levi", "facet", "cosets", "rep", "_hash")

    def __init__(self, levi: LeviDatum, facet: Facet, cosets: frozenset):
        self.levi = levi
        self.facet = facet
        self.cosets = cosets
        self.rep = min(cosets, key=element_sort_key)
        self._hash = hash((levi, facet, self.rep))

    def __eq__(self, other):
        return (isinstance(other, ComponentLabel) and self.levi == other.levi
                and self.facet == other.facet and self.rep == other.rep)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"S[{element_to_string(self.rep)}]"


def component_of(w: AffineWeylElement, levi: LeviDatum, facet: Facet) -> ComponentLabel:
    """Label of the attractor component through w."""
    return ComponentLabel(levi, facet, frozenset(_min_left_m_coset(levi, w * v)
                                                 for v in facet.elements))


# -- closed attractor selection ----------------------------------------------------


def _chain_labels(idx: DoubleCosetIndex, levi: LeviDatum, facet: Facet,
                  enumerate_all: bool, cap: int | None = None) -> set:
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


def levi_induced_facet(levi: LeviDatum, facet: Facet) -> tuple:
    """W_{M,f} = W_M intersect W_f, as a tuple of elements."""
    return tuple(w for w in facet.elements if levi.in_w_m(w))


def component_has_levi_point(label: ComponentLabel) -> bool:
    """True iff the double coset W_{M,af} rep W_f meets W_M: since
    W_{M,af} lies in W_M, iff one of its left-coset minima does."""
    return any(label.levi.in_w_m(c) for c in label.cosets)


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

    def _check_operand(self, other):
        if self.datum is not other.datum or self.prime != other.prime:
            raise SatakeError("operand mismatch")

    def __add__(self, other):
        self._check_operand(other)
        out = dict(self.coeffs)
        for z, c in other.coeffs.items():
            out[z] = out.get(z, 0) + c
        return MonoidAlgebraElement(self.datum, self.prime, out)

    def __mul__(self, other):
        self._check_operand(other)
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
            facet: Facet, prime: int,
            cap: int | None = INTERVAL_CAP) -> LeviHeckeElement:
    """Indicator sum over the Levi double cosets lying in the component of
    `label` and inside the Schubert scheme of idx, lower_set(idx.rep) W_f: the
    subword property splits the interval below idx.rep w_f, a reduced product.

    Only the products a * u in W_M = X x| W0(M) are formed: for a in the
    lower set these are the u in W_f with u.finite in a.finite^-1 W0(M), read
    off a map from finite parts to W_f.  That map is one-to-one because W_f
    is finite, so it holds no nonzero translation and meets each fibre of
    W -> W0 at most once.  Each canonical W_{M,f} double coset is checked
    against the label once, whether it is kept or not, by one left-coset
    reduction looked up in `label.cosets`."""
    if not component_has_levi_point(label):
        raise SatakeError("component has no Levi point")
    wmf = levi_induced_facet(levi, facet)
    by_finite = {u.finite: u for u in facet.elements}
    partners = {}  # a.finite -> the u in W_f with a.finite * u.finite in W0(M)
    ys = set()
    for a in aw.lower_set(idx.rep, cap):
        us = partners.get(a.finite)
        if us is None:
            ainv = a.finite.inverse()
            us = partners[a.finite] = [by_finite[v] for v in (ainv * m for m in levi.w0m)
                                       if v in by_finite]
        ys.update([a * u for u in us])
    coeffs = {}
    checked = set()
    for y in ys:
        canon = _canon_m_coset(levi, wmf, y)
        if canon not in checked:
            checked.add(canon)
            if _min_left_m_coset(levi, canon) in label.cosets:
                coeffs[canon] = 1
    return LeviHeckeElement(levi, facet, prime, coeffs)


def satake_phi(idx: DoubleCosetIndex, levi: LeviDatum, facet: Facet, prime: int,
               cap: int | None = INTERVAL_CAP) -> LeviHeckeElement:
    """Transform of a single phi basis element: the indicator of the closed
    attractor intersection, or zero when that component misses the Levi.

    The canonical representatives in the image are memoized on the datum per
    (idx, levi, facet), an empty tuple when the component misses the Levi.
    The prime is not part of the key: every coefficient is 1, so the prime
    only reduces it, and the element is built (and the prime checked) on
    every call.  A hit with a nonempty image still walks the interval under
    `cap`, so the cap raises as it does on a miss."""
    memo = facet.datum.satake_memo
    key = (idx, levi, facet)
    reps = memo.get(key)
    if reps is None:
        label = closed_attractor_component(idx, levi, facet)
        reps = ()
        if component_has_levi_point(label):
            reps = tuple(phi_c_w(label, idx, levi, facet, prime, cap).coeffs)
        memo[key] = reps
    elif reps:
        aw.lower_set(idx.rep, cap)
    return LeviHeckeElement(levi, facet, prime, dict.fromkeys(reps, 1))


def satake(a: HeckeElement, levi: LeviDatum,
           cap: int | None = INTERVAL_CAP) -> LeviHeckeElement:
    """F_p-linear extension of satake_phi over the phi basis."""
    if levi.datum is not a.facet.datum:
        raise SatakeError("Levi and element live over different data")
    pa = a.convert("phi", cap)
    out = LeviHeckeElement(levi, a.facet, a.prime, {})
    for idx, c in pa.coeffs.items():
        out = out + satake_phi(idx, levi, a.facet, a.prime, cap).scale(c)
    return out


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
    # Special facet: W_f meets each W0-fibre once, so one h in W_f makes
    # idx.rep * h a translation t_mu.  The translations in the double coset
    # form the W0-orbit of mu; pick its anti-dominant member.
    uinv = idx.rep.finite.inverse()
    h = next(h for h in idx.facet.elements if h.finite is uinv)
    return idx.facet.datum.antidominant_representative((idx.rep * h).translation)[0]
