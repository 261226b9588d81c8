"""Independent brute-force implementations used only for validation.

Three oracles: a generic Iwahori-Hecke algebra over Z[q] whose q -> 0 mod p
specialization must reproduce the phi-basis convolution, a subword-property
Bruhat test and an exact alcove-walk length count.  None of them calls
`demazure_product` or `bruhat_leq`, but they do share these layers with what
they check:
- the generic product reads right steps w -> w s_i off the datum's step
  table (`RightSteps`, kept in `RootDatum.generic_steps`), which forms each
  w s_i once by the affine product and compares lengths by `length`;
- `phi_to_generic` takes `lower_set`, and so does `oracle_convolve_phi`,
  which goes back to the phi basis by back-substitution over it, not through
  `HeckeElement.convert`: the class walk of `enumerate_lower_interval`
  (the lifting walk) is not among the shared layers;
- classes come from the one class constructor: `DoubleCosetIndex(f, w)` is
  `double_coset_rep(w, f)`, and at the Iwahori facet, the oracles' only
  facet, every element is its own class and W_f has no generator to step by;
- the subword test is membership in `lower_set`, which builds the products
  of the subwords of a reduced word letter by letter.
The alcove-walk count shares none of them, so it checks `length` on its own.

The generic algebra packs each Z[q] coefficient into one int, its value at
q = 2^64, and builds self * T_w from self * T_{ws} one length level at a
time, on the step table's element numbers: only the product's terms are
mapped back to elements.  A product whose coefficient bound reaches 2^63
raises CapExceeded before it is formed, so a packed coefficient never wraps.
"""

from __future__ import annotations

from threading import Lock

from . import affine_weyl as aw
from .affine_weyl import (AffineWeylElement, DoubleCosetIndex, Facet,
                          element_to_string, length, lower_set, simple_system)
from .hecke import HeckeElement, convolve_phi_classes, phi_basis_element
from .root_datum import RootDatum, RootDatumError, preset

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


class RightSteps:
    """The numbering of the elements the generic algebra meets on one datum,
    kept in `RootDatum.generic_steps`.  `elements[n]` is element number n,
    and `number(w)` numbers w on first sight.  `steps[n]` is None until
    `fill(n)` sets it, once, to the tuple of (number of w s_i, whether
    l(w s_i) > l(w)) over the affine simple indices i in order, for w =
    elements[n].  A new number is handed out under a lock, so threads that
    number elements at once never share one."""

    __slots__ = ("_gens", "_index", "_lock", "elements", "steps")

    def __init__(self, datum: RootDatum):
        sys = simple_system(datum)
        self._gens = tuple(sys.elements[i] for i in sys.indices)
        self._index: dict[AffineWeylElement, int] = {}
        self._lock = Lock()
        self.elements: list[AffineWeylElement] = []
        self.steps: list[tuple | None] = []

    def number(self, w: AffineWeylElement) -> int:
        n = self._index.get(w)
        if n is None:
            with self._lock:
                n = self._index.get(w)
                if n is None:
                    n = len(self.elements)
                    self.elements.append(w)
                    self.steps.append(None)
                    self._index[w] = n
        return n

    def fill(self, n: int) -> tuple:
        w = self.elements[n]
        lw = length(w)
        st = self.steps[n] = tuple((self.number(ws), length(ws) > lw)
                                   for ws in (w * s for s in self._gens))
        return st


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
        # relabels v -> v w.  Only the previous level is kept.  Elements are
        # their numbers in the datum's step table until `out` is mapped back.
        if other.datum is not self.datum:
            raise RootDatumError("datum mismatch")  # before the table numbers w
        table = self.datum.generic_steps
        if table is None:
            table = self.datum.generic_steps = RightSteps(self.datum)
        number, fill, steps, elements = table.number, table.fill, table.steps, table.elements
        right = {number(w): c for w, c in other.coeffs.items()}
        levels = {}  # length -> {w: position k of s in the step tuples, None at length 0}
        todo = list(right)
        while todo:
            w = todo.pop()
            level = levels.setdefault(length(elements[w]), {})
            if w not in level:
                st = steps[w] or fill(w)
                level[w] = k = next((k for k, (_, up) in enumerate(st) if not up), None)
                if k is not None:
                    todo.append(st[k][0])
        # |q - 1| + |q| = 3 bounds the growth of the digit sum per letter.
        bound = self.bound * other.bound * 3 ** max(levels, default=0)
        if bound >= PACK_LIMIT:
            raise aw.CapExceeded(
                f"generic product coefficient bound reached {bound}, over the limit "
                f"{PACK_LIMIT} set by the packed Z[q] coefficients (oracle.PACK_LIMIT)")
        e, q, q_minus_1 = aw.identity(self.datum), B, B - 1
        out, prev = {}, {}
        for lw in range(len(levels)):
            cur = {}
            for w, k in levels[lw].items():
                if k is None:
                    x = elements[w]
                    terms = {number(v if x is e else v * x): c
                             for v, c in self.coeffs.items()}
                else:
                    terms = {}
                    get = terms.get
                    for v, c in prev[steps[w][k][0]].items():
                        vs, up = (steps[v] or fill(v))[k]
                        # T_v T_s = T_vs if vs > v, else (q - 1) T_v + q T_vs
                        if up:
                            terms[vs] = get(vs, 0) + c
                        else:
                            terms[v] = get(v, 0) + c * q_minus_1
                            terms[vs] = get(vs, 0) + c * q
                cur[w] = terms
                cw = right.get(w)
                if cw:
                    for v, c in terms.items():
                        out[v] = out.get(v, 0) + c * cw
            prev = cur
        return GenericHeckeElement(self.datum, {elements[v]: c for v, c in out.items()},
                                   bound)

    def __repr__(self):
        terms = sorted((element_to_string(w), unpack(c)) for w, c in self.coeffs.items())
        return " + ".join(f"({p})*T[{w}]" for w, p in terms) or "0"


def q0_mod_p(a: GenericHeckeElement, p: int) -> dict:
    """{w: the constant term of a's coefficient of T_w, mod p}, zeros left out:
    a at q -> 0, reduced mod p, still over elements."""
    out = {}
    for w, packed in a.coeffs.items():
        if c := _constant_term(packed) % p:
            out[w] = c
    return out


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
    multiply, specialize q=0 mod p, re-expand in the phi basis."""
    return generic_to_phi(phi_to_generic(w1) * phi_to_generic(w2), w1.facet, p)


def generic_to_phi(a: GenericHeckeElement, f: Facet, p: int) -> HeckeElement:
    """a at q -> 0 mod p in the phi basis of the Iwahori facet f.  Each element
    is its own class and phi_w is the sum of 1_v over lower_set(w), so the
    re-expansion is back-substitution from the longest element down, read off
    `q0_mod_p`, without double-coset indices or `HeckeElement.convert`."""
    remaining = q0_mod_p(a, p)
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


def brute_length(w: AffineWeylElement) -> int:
    """Number of affine hyperplanes <alpha, .> = k (alpha positive, k an
    integer) separating the base alcove from its image under w = t_lambda u.
    It is read on integers at (h + 1) b = rho_check, for the point b of the
    base alcove 0 < <alpha, x> < 1 and h the largest height of a highest root:
    alpha pairs to its height lo there, and to hi at (h + 1) w.b = (h + 1)
    lambda + u(rho_check).  Neither point is on a hyperplane, so the integers
    strictly between lo / (h + 1) and hi / (h + 1) number the gap of their floors."""
    datum = w.datum
    h1 = max(map(sum, datum.highest_roots)) + 1
    wb = tuple(h1 * t + x for t, x in zip(w.translation, w.finite.act(datum.rho_check)))
    count = 0
    for rt in datum.positive_roots:
        lo, hi = sum(rt), datum.pair(rt, wb)
        count += abs(hi // h1 - lo // h1)
    return count


# -- cross-validation suite --------------------------------------------------------------

PRIMES = (2, 3, 5)  # the primes each convolution cross-check runs at


def check_convolution(datum: RootDatum, length_cap: int = 3) -> dict:
    """Compare hecke.convolve_phi_classes with the generic-Hecke oracle on all
    ordered pairs of Iwahori phi classes up to the length cap, at each of
    `PRIMES`; returns a summary.  The generic product does not depend on p, so
    each pair's is formed once and specialised at every prime: a failing row
    names the first (w1, w2, p) in that order, pairs outside and primes
    inside, and `pairs` counts the (pair, prime) cases passed before it."""
    f = aw.iwahori(datum)
    classes = [DoubleCosetIndex(f, w) for w in aw.length_ball(datum, length_cap)]
    generic = {c: phi_to_generic(c) for c in classes}
    pairs = 0
    for w1 in classes:
        for w2 in classes:
            got, _ = convolve_phi_classes(w1, w2)
            prod = generic[w1] * generic[w2]
            for p in PRIMES:
                if phi_basis_element(got, p) != generic_to_phi(prod, f, p):
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
    rows = []
    for spec in specs:
        datum = preset(spec)
        rows.append(("convolution", check_convolution(datum, conv_cap)))
        rows.append(("bruhat", check_bruhat(datum, bruhat_cap)))
        rows.append(("length", check_length(datum, length_cap)))
    return rows
