"""Independent brute-force implementations used only for validation.

Four oracles: a generic Iwahori-Hecke algebra over Z[q] whose q -> 0 mod p
specialization must reproduce the phi-basis convolution, a subword-property
Bruhat test, an exact alcove-walk length count and a W_f sweep for double
cosets.  Beyond min_coset_rep, they share no code path with what they check.
"""

from __future__ import annotations

from fractions import Fraction

from . import affine_weyl as aw
from .affine_weyl import (AffineWeylElement, DoubleCosetIndex, Facet,
                          element_to_string, length, lower_set, reduced_word,
                          simple_system)
from .hecke import HeckeElement, convolve_phi_classes, phi_basis_element
from .root_datum import RootDatum, RootDatumError

Poly = tuple[int, ...]  # dense integer coefficients, low degree first


def poly_add(a: Poly, b: Poly) -> Poly:
    n = max(len(a), len(b))
    out = [0] * n
    for i, c in enumerate(a):
        out[i] += c
    for i, c in enumerate(b):
        out[i] += c
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def poly_mul(a: Poly, b: Poly) -> Poly:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def poly_eval(a: Poly, q: int) -> int:
    val = 0
    for c in reversed(a):
        val = val * q + c
    return val


P_ONE: Poly = (1,)
P_Q: Poly = (0, 1)
P_QM1: Poly = (-1, 1)


class GenericHeckeElement:
    """Sparse combination of T_w with coefficients in Z[q], Iwahori level."""

    __slots__ = ("datum", "coeffs")

    def __init__(self, datum: RootDatum, coeffs: dict):
        self.datum = datum
        self.coeffs = {w: p for w, p in coeffs.items() if p}

    @classmethod
    def t_basis(cls, w: AffineWeylElement):
        return cls(w.datum, {w: P_ONE})

    @classmethod
    def unit(cls, datum: RootDatum):
        return cls(datum, {aw.identity(datum): P_ONE})

    def __eq__(self, other):
        return (isinstance(other, GenericHeckeElement)
                and self.datum is other.datum and self.coeffs == other.coeffs)

    def __add__(self, other):
        out = dict(self.coeffs)
        for w, p in other.coeffs.items():
            out[w] = poly_add(out.get(w, ()), p)
        return GenericHeckeElement(self.datum, out)

    def _mul_simple(self, i: int) -> "GenericHeckeElement":
        # T_w * T_s = T_{ws} if ws > w, else (q-1) T_w + q T_{ws}
        s = simple_system(self.datum).simple(i)
        out = {}

        def acc(w, p):
            if p:
                out[w] = poly_add(out.get(w, ()), p)

        for w, p in self.coeffs.items():
            ws = w * s
            if length(ws) > length(w):
                acc(ws, p)
            else:
                acc(w, poly_mul(p, P_QM1))
                acc(ws, poly_mul(p, P_Q))
        return GenericHeckeElement(self.datum, out)

    def _mul_t_basis(self, w: AffineWeylElement) -> "GenericHeckeElement":
        word, tau = reduced_word(w)
        cur = self
        for i in word:
            cur = cur._mul_simple(i)
        if tau.is_identity():
            return cur
        return GenericHeckeElement(self.datum,
                                   {v * tau: p for v, p in cur.coeffs.items()})

    def __mul__(self, other: "GenericHeckeElement") -> "GenericHeckeElement":
        out = GenericHeckeElement(self.datum, {})
        for w, p in other.coeffs.items():
            term = self._mul_t_basis(w)
            out = out + GenericHeckeElement(
                self.datum, {v: poly_mul(pp, p) for v, pp in term.coeffs.items()})
        return out

    def __repr__(self):
        terms = sorted((element_to_string(w), p) for w, p in self.coeffs.items())
        return " + ".join(f"({p})*T[{w}]" for w, p in terms) or "0"


def specialize_q0_mod_p(a: GenericHeckeElement, p: int, facet: Facet) -> HeckeElement:
    """Evaluate q -> 0, reduce mod p, reindex by double cosets (Iwahori only:
    each element is its own double coset)."""
    if not facet.is_iwahori:
        raise RootDatumError("the generic oracle is Iwahori-only")
    coeffs = {}
    for w, poly in a.coeffs.items():
        c = poly_eval(poly, 0) % p
        if c:
            coeffs[DoubleCosetIndex(facet, w)] = c
    return HeckeElement(facet, p, "indicator", coeffs)


def phi_to_generic(idx: DoubleCosetIndex) -> GenericHeckeElement:
    """phi_w as the Bruhat-interval sum of T-basis elements (Iwahori)."""
    if not idx.facet.is_iwahori:
        raise RootDatumError("the generic oracle is Iwahori-only")
    return GenericHeckeElement(idx.facet.datum,
                               {v: P_ONE for v in lower_set(idx.rep)})


def oracle_convolve_phi(w1: DoubleCosetIndex, w2: DoubleCosetIndex,
                        p: int) -> HeckeElement:
    """Full oracle pipeline: embed both phi classes into the generic algebra,
    multiply, specialize q=0 mod p, re-expand in the phi basis."""
    prod = phi_to_generic(w1) * phi_to_generic(w2)
    return specialize_q0_mod_p(prod, p, w1.facet).convert("phi")


# -- Bruhat order by subwords ---------------------------------------------------------

def _subword_products(w: AffineWeylElement, cap: int):
    if length(w) > cap:
        raise aw.CapExceeded(f"subword search reached length {length(w)}, over the "
                             f"limit {cap} set by --bruhat-cap (brute_bruhat(cap=))")
    memo = w.datum.subword_memo
    key = (w.translation, w.finite)
    val = memo.get(key)
    if val is None:
        word, tau = reduced_word(w)
        sys = simple_system(w.datum)
        partial = {aw.identity(w.datum)}
        for i in word:
            s = sys.elements[i]
            partial |= {v * s for v in partial}
        val = frozenset(v * tau for v in partial)
        memo[key] = val
    return val


def brute_bruhat(u: AffineWeylElement, w: AffineWeylElement, cap: int = 16) -> bool:
    """True iff some subword of a fixed reduced word of w multiplies to u."""
    return u in _subword_products(w, cap)


# -- alcove-walk length ----------------------------------------------------------------


def _base_alcove_point(datum: RootDatum):
    """An exact interior point of the base alcove 0 < <alpha, x> < 1."""
    h = max(sum(theta) for theta, _ in datum.highest_roots)
    eps = Fraction(1, h + 1)
    return tuple(eps if i < datum.n else Fraction(0) for i in range(datum.dim))


def brute_length(w: AffineWeylElement) -> int:
    """Number of affine hyperplanes <alpha, .> = k (alpha positive, k an
    integer) separating the base alcove from its image under w."""
    datum = w.datum
    b = _base_alcove_point(datum)
    ub = w.finite.act(b)
    wb = tuple(Fraction(t) + x for t, x in zip(w.translation, ub))
    count = 0
    for rt in datum.positive_roots:
        lo = sum(rt[i] * b[i] for i in range(datum.n))
        hi = sum(rt[i] * wb[i] for i in range(datum.n))
        if lo > hi:
            lo, hi = hi, lo
        # integers strictly between lo and hi; both endpoints are non-integral
        count += _floor(hi) - _floor(lo)
    return count


def _floor(x: Fraction) -> int:
    return x.numerator // x.denominator


# -- double-coset representative by a sweep of W_f --------------------------------------

def brute_double_coset_rep(w: AffineWeylElement, f: Facet) -> DoubleCosetIndex:
    """The representative _f w^f: the unique longest element among the
    minimal coset representatives {(v w)^f : v in W_f}."""
    candidates = {aw.min_coset_rep(v * w, f) for v in f.elements}
    best = max(candidates, key=length)
    ties = [c for c in candidates if length(c) == length(best)]
    if len(ties) != 1:
        raise RootDatumError("double coset has no unique maximal min-rep")
    return DoubleCosetIndex(f, best)


# -- cross-validation suite --------------------------------------------------------------


def check_convolution(datum: RootDatum, length_cap: int = 3,
                      primes=(2, 3, 5)) -> dict:
    """Compare hecke.convolve against the generic-Hecke oracle on all ordered
    pairs of Iwahori phi classes up to the length cap.  Returns a summary."""
    f = aw.iwahori(datum)
    classes = [DoubleCosetIndex(f, w) for w in aw.length_ball(datum, length_cap)]
    pairs = 0
    for p in primes:
        for w1 in classes:
            for w2 in classes:
                got, _ = convolve_phi_classes(w1, w2)
                direct = phi_basis_element(got, p)
                via_oracle = oracle_convolve_phi(w1, w2, p)
                if direct != via_oracle:
                    return {"datum": datum.spec_string, "ok": False,
                            "pairs": pairs, "failed": (repr(w1), repr(w2), p)}
                pairs += 1
    return {"datum": datum.spec_string, "ok": True, "pairs": pairs,
            "primes": list(primes), "length_cap": length_cap}


def check_bruhat(datum: RootDatum, length_cap: int = 4) -> dict:
    elements = aw.length_ball(datum, length_cap)
    pairs = 0
    for u in elements:
        for w in elements:
            if aw.bruhat_leq(u, w) != brute_bruhat(u, w, cap=length_cap):
                return {"datum": datum.spec_string, "ok": False,
                        "failed": (repr(u), repr(w))}
            pairs += 1
    return {"datum": datum.spec_string, "ok": True, "pairs": pairs,
            "length_cap": length_cap}


def check_length(datum: RootDatum, length_cap: int = 6) -> dict:
    elements = aw.length_ball(datum, length_cap)
    for w in elements:
        if length(w) != brute_length(w):
            return {"datum": datum.spec_string, "ok": False, "failed": repr(w)}
    return {"datum": datum.spec_string, "ok": True, "count": len(elements),
            "length_cap": length_cap}


def run_checks(specs=("A1", "A2"), conv_cap: int = 3, bruhat_cap: int = 4,
               length_cap: int = 6, primes=(2, 3, 5)):
    """The full cross-validation matrix; one result row per (datum, oracle)."""
    from .root_datum import preset

    rows = []
    for spec in specs:
        datum = preset(spec)
        rows.append(("convolution", check_convolution(datum, conv_cap, primes)))
        rows.append(("bruhat", check_bruhat(datum, bruhat_cap)))
        rows.append(("length", check_length(datum, length_cap)))
    return rows
