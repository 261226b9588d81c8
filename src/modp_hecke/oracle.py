"""Independent brute-force implementations used only for validation.

Three oracles: a generic Iwahori-Hecke algebra over Z[q] whose q -> 0 mod p
specialization must reproduce the phi-basis convolution, a subword-property
Bruhat test and an exact alcove-walk length count.  None of them calls
`demazure_product` or `bruhat_leq`, but they do share these layers with what
they check:
- the generic product uses the affine product, `length` and `right_descents`;
- `phi_to_generic` takes `lower_set`, and so does `oracle_convolve_phi`,
  which goes back to the phi basis by back-substitution over it, not through
  `HeckeElement.convert`: the class walk of `enumerate_lower_interval`
  (one-letter deletions, `double_coset_rep`) is not among the shared layers;
- the subword test is membership in `lower_set`, which builds the products
  of the subwords of a reduced word letter by letter.
The alcove-walk count shares none of them, so it checks `length` on its own.

The generic algebra packs each Z[q] coefficient into one int, its value at
q = 2^64, and builds self * T_w from self * T_{ws} one length level at a
time.  A product whose coefficient bound reaches 2^63 raises CapExceeded
before it is formed, so a packed coefficient never wraps.
"""

from __future__ import annotations

from fractions import Fraction

from . import affine_weyl as aw
from .affine_weyl import (AffineWeylElement, DoubleCosetIndex, Facet,
                          element_to_string, length, lower_set, right_descents,
                          simple_system)
from .hecke import HeckeElement, convolve_phi_classes, phi_basis_element
from .root_datum import RootDatum, RootDatumError

# A coefficient c_0 + c_1 q + ... is stored as the int c_0 + c_1 B + ..., its
# value at q = B (Kronecker substitution).  The digits are read back balanced,
# in [-B/2, B/2), so the encoding is exact while every |c_i| < PACK_LIMIT.
B = 1 << 64
PACK_LIMIT = B >> 1


def pack(poly) -> int:
    """Dense integer coefficients, low degree first -> value at q = B."""
    val = 0
    for c in reversed(poly):
        val = val * B + c
    return val


def _constant_term(x: int) -> int:
    return (x + PACK_LIMIT) % B - PACK_LIMIT


def unpack(x: int) -> tuple:
    """Inverse of pack: the balanced base-B digits, low degree first."""
    out = []
    while x:
        out.append(_constant_term(x))
        x = (x - out[-1]) // B
    return tuple(out)


class GenericHeckeElement:
    """Sparse combination of T_w with packed coefficients in Z[q], Iwahori
    level.  `bound` is an upper bound on the sum of the absolute values of all
    coefficient digits."""

    __slots__ = ("datum", "coeffs", "bound")

    def __init__(self, datum: RootDatum, coeffs: dict, bound: int | None = None):
        self.datum = datum
        self.coeffs = {w: c for w, c in coeffs.items() if c}
        if bound is None:
            bound = sum(sum(map(abs, unpack(c))) for c in self.coeffs.values())
        self.bound = bound

    def __eq__(self, other):
        return (isinstance(other, GenericHeckeElement)
                and self.datum is other.datum and self.coeffs == other.coeffs)

    def __mul__(self, other: "GenericHeckeElement") -> "GenericHeckeElement":
        # self * T_w is built as (self * T_{ws}) * T_s, s the smallest right
        # descent of w, from the level of length l(w) - 1; a length-zero w
        # relabels v -> v w.  Only the previous level is kept.
        sys = simple_system(self.datum)
        levels = {}  # length -> {w: smallest right descent s, None at length 0}
        todo = list(other.coeffs)
        while todo:
            w = todo.pop()
            level = levels.setdefault(length(w), {})
            if w not in level:
                level[w] = next((sys.elements[i] for i in right_descents(w)), None)
                if level[w] is not None:
                    todo.append(w * level[w])
        # |q - 1| + |q| = 3 bounds the growth of the digit sum per letter.
        bound = self.bound * other.bound * 3 ** max(levels, default=0)
        if bound >= PACK_LIMIT:
            raise aw.CapExceeded(
                f"generic product coefficient bound reached {bound}, over the limit "
                f"{PACK_LIMIT} set by the packed Z[q] coefficients (oracle.PACK_LIMIT)")
        out, prev = {}, {}
        for lw in range(len(levels)):
            cur = {}
            for w, s in levels[lw].items():
                if s is None:
                    terms = {v * w: c for v, c in self.coeffs.items()}
                else:
                    terms = {}
                    for v, c in prev[w * s].items():
                        vs = v * s
                        # T_v T_s = T_vs if vs > v, else (q - 1) T_v + q T_vs
                        if length(vs) > length(v):
                            terms[vs] = terms.get(vs, 0) + c
                        else:
                            terms[v] = terms.get(v, 0) + c * (B - 1)
                            terms[vs] = terms.get(vs, 0) + c * B
                cur[w] = terms
                cw = other.coeffs.get(w)
                if cw:
                    for v, c in terms.items():
                        out[v] = out.get(v, 0) + c * cw
            prev = cur
        return GenericHeckeElement(self.datum, out, bound)

    def __repr__(self):
        terms = sorted((element_to_string(w), unpack(c)) for w, c in self.coeffs.items())
        return " + ".join(f"({p})*T[{w}]" for w, p in terms) or "0"


def specialize_q0_mod_p(a: GenericHeckeElement, p: int, facet: Facet) -> HeckeElement:
    """Evaluate q -> 0, reduce mod p, reindex by double cosets (Iwahori only:
    each element is its own double coset)."""
    if not facet.is_iwahori:
        raise RootDatumError("the generic oracle is Iwahori-only")
    coeffs = {}
    for w, packed in a.coeffs.items():
        c = _constant_term(packed) % p
        if c:
            coeffs[DoubleCosetIndex(facet, w)] = c
    return HeckeElement(facet, p, "indicator", coeffs)


def phi_to_generic(idx: DoubleCosetIndex) -> GenericHeckeElement:
    """phi_w as the Bruhat-interval sum of T-basis elements (Iwahori)."""
    if not idx.facet.is_iwahori:
        raise RootDatumError("the generic oracle is Iwahori-only")
    interval = lower_set(idx.rep)
    return GenericHeckeElement(idx.facet.datum, dict.fromkeys(interval, 1),
                               len(interval))


def oracle_convolve_phi(w1: DoubleCosetIndex, w2: DoubleCosetIndex,
                        p: int) -> HeckeElement:
    """Full oracle pipeline: embed both phi classes into the generic algebra,
    multiply, specialize q=0 mod p, re-expand in the phi basis.  At Iwahori
    each element is its own class and phi_w is the sum of 1_v over
    lower_set(w), so the re-expansion is back-substitution from the longest
    element down, without `HeckeElement.convert`."""
    f = w1.facet
    prod = phi_to_generic(w1) * phi_to_generic(w2)
    remaining = {idx.rep: c for idx, c in specialize_q0_mod_p(prod, p, f).coeffs.items()}
    out = {}
    while remaining:
        w = max(remaining, key=length)
        c = out[DoubleCosetIndex(f, w)] = remaining.pop(w)
        for v in lower_set(w):
            if v is w:
                continue
            if r := (remaining.get(v, 0) - c) % p:
                remaining[v] = r
            else:
                remaining.pop(v, None)
    return HeckeElement(f, p, "phi", out)


# -- Bruhat order by subwords ---------------------------------------------------------

def brute_bruhat(u: AffineWeylElement, w: AffineWeylElement, cap: int = 16) -> bool:
    """True iff some subword of a fixed reduced word of w multiplies to u:
    `lower_set(w)` is the set of those products."""
    if length(w) > cap:
        raise aw.CapExceeded(f"subword search reached length {length(w)}, over the "
                             f"limit {cap} set by --bruhat-cap (brute_bruhat(cap=))")
    return u in lower_set(w)


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


# -- cross-validation suite --------------------------------------------------------------

PRIMES = (2, 3, 5)  # the primes each convolution cross-check runs at


def check_convolution(datum: RootDatum, length_cap: int = 3) -> dict:
    """Compare hecke.convolve_phi_classes with the generic-Hecke oracle on all
    ordered pairs of Iwahori phi classes up to the length cap; returns a summary."""
    f = aw.iwahori(datum)
    classes = [DoubleCosetIndex(f, w) for w in aw.length_ball(datum, length_cap)]
    pairs = 0
    for p in PRIMES:
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
            "primes": list(PRIMES), "length_cap": length_cap}


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
               length_cap: int = 6):
    """The full cross-validation matrix; one result row per (datum, oracle)."""
    from .root_datum import preset

    rows = []
    for spec in specs:
        datum = preset(spec)
        rows.append(("convolution", check_convolution(datum, conv_cap)))
        rows.append(("bruhat", check_bruhat(datum, bruhat_cap)))
        rows.append(("length", check_length(datum, length_cap)))
    return rows
