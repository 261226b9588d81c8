"""Independent brute-force implementations used only for validation.

Three oracles: a generic Iwahori-Hecke algebra over Z[q] whose q -> 0 mod p
specialization must reproduce the phi-basis convolution, a subword-property
Bruhat test and an exact alcove-walk length count.  None of them calls
`demazure_product` or `bruhat_leq`, but they do share these layers with what
they check:
- the generic product reads right steps w -> w s_i off the datum's step
  table (`RightSteps`, kept in `RootDatum.generic_steps`), which forms each
  w s_i once by the affine product and compares lengths by `length`;
- `phi_to_generic` takes `lower_set`, numbered by the step table, and so do
  `check_convolution`, which compares in the T basis with phi of the class
  product, and `oracle_convolve_phi`, which goes back to the phi basis by
  back-substitution over it, not through `HeckeElement.convert`: the class
  walk of `enumerate_lower_interval` (the lifting walk) is not shared;
- classes come from the one class constructor: `DoubleCosetIndex(f, w)` is
  `double_coset_rep(w, f)`, and at the Iwahori facet, the oracles' only
  facet, every element is its own class and W_f has no generator to step by;
- the subword test is membership in `lower_set`, which builds the products
  of the subwords of a reduced word letter by letter.
The alcove-walk count shares none of them, so it checks `length` on its own.
`tests/test_layering.py` holds each entry point to this list, by the names it
reaches outside this module.

The generic algebra packs each Z[q] coefficient into one int, its value at
q = 2^64, and keys its terms by step-table number only, from `phi_to_generic`
to `generic_to_phi`; an element reads as w only in `repr`.  Elements are
immutable, and each phi class has one: `phi_to_generic` returns the element
the step table keeps for the class.  A product builds self * T_w from
self * T_{ws} one length level at a time, after it factors (1 + T_s) off the
right factor for each affine simple s that leaves its coefficients invariant
under y -> y s (a phi element's right descents do).  The peel and the levels
depend on the right factor alone, so they are planned once per element, on
its first use as a right factor, and kept on it.  A product whose
coefficient bound reaches 2^63 raises CapExceeded before it is formed, so a
packed coefficient never wraps.
"""

from __future__ import annotations

import math
from threading import Lock

from . import affine_weyl as aw
from .affine_weyl import (AffineWeylElement, DoubleCosetIndex, Facet,
                          element_to_string, length, lower_set, simple_system)
from .hecke import HeckeElement, convolve_phi_classes
from .root_datum import RootDatum, RootDatumError

# A coefficient c_0 + c_1 q + ... is stored as its value c_0 + c_1 B + ... at
# q = B (Kronecker substitution), read back in balanced digits in [-B/2, B/2):
# exact while every |c_i| < PACK_LIMIT.  Times B is `<< 64`, mod B `& (B - 1)`.
B = 1 << 64
PACK_LIMIT = B >> 1


def pack(poly) -> int:
    """Dense integer coefficients, low degree first -> value at q = B."""
    val = 0
    for c in reversed(poly):
        val = (val << 64) + c
    return val


def unpack(x: int) -> tuple:
    """Inverse of pack: the balanced base-B digits, low degree first."""
    out = []
    while x:
        out.append(c := ((x + PACK_LIMIT) & (B - 1)) - PACK_LIMIT)
        x = (x - c) >> 64
    return tuple(out)


class RightSteps:
    """The numbering of the elements the generic algebra meets on one datum,
    kept in `RootDatum.generic_steps` (made by `of`): `number(w)` numbers w on
    first sight as n, `elements[n]` = w, `lengths[n]` = l(w), under a lock.
    `steps[n]` is None until `fill(n)` sets it, once, to the tuple of (number
    of w s_i, whether l(w s_i) > l(w)) over the affine simple indices i.
    `phi_of(n)` makes, once, the one generic element of phi_w: T_v with
    coefficient 1 for each number v of lower_set(w), kept in `phis`."""

    __slots__ = ("_datum", "_gens", "_index", "_lock", "elements", "lengths", "steps", "phis")
    _new = Lock()

    def __init__(self, datum: RootDatum):
        sys = simple_system(datum)
        self._datum = datum
        self._gens = tuple(sys.elements[i] for i in sys.indices)
        self._index: dict[AffineWeylElement, int] = {}
        self._lock = Lock()
        self.elements: list[AffineWeylElement] = []
        self.lengths: list[int] = []
        self.steps: list[tuple | None] = []
        self.phis: dict[int, GenericHeckeElement] = {}

    def number(self, w: AffineWeylElement) -> int:
        n = self._index.get(w)
        if n is None:
            with self._lock:
                n = self._index.get(w)
                if n is None:
                    n = len(self.elements)
                    self.elements.append(w)
                    self.lengths.append(length(w))
                    self.steps.append(None)
                    self._index[w] = n
        return n

    def fill(self, n: int) -> tuple:
        w, lw = self.elements[n], self.lengths[n]
        st = self.steps[n] = tuple((self.number(ws), length(ws) > lw)
                                   for ws in (w * s for s in self._gens))
        return st

    def phi_of(self, n: int) -> "GenericHeckeElement":
        if (phi := self.phis.get(n)) is None:
            terms = dict.fromkeys(map(self.number, lower_set(self.elements[n])), 1)
            # setdefault: threads that race here all get the element that won
            phi = self.phis.setdefault(n, GenericHeckeElement(self._datum, terms, len(terms)))
        return phi

    @classmethod
    def of(cls, datum: RootDatum) -> "RightSteps":
        if (table := datum.generic_steps) is None:
            with cls._new:  # one table per datum, as numbered terms outlive a product
                table = datum.generic_steps = datum.generic_steps or cls(datum)
        return table


def _times_s(terms: dict, k: int, table: RightSteps, out: dict) -> dict:
    """out + terms * T_s, in place, s the k-th affine simple and the terms
    keyed by element numbers: T_v T_s = T_vs if vs > v, else (q - 1) T_v + q T_vs."""
    steps, fill, get = table.steps, table.fill, out.get
    for v, c in terms.items():
        vs, up = (steps[v] or fill(v))[k]
        if up:
            out[vs] = get(vs, 0) + c
        else:
            out[v] = get(v, 0) + (c << 64) - c
            out[vs] = get(vs, 0) + (c << 64)
    return out


def _right_plan(right: dict, table: RightSteps) -> tuple:
    """The part of a product by the right factor `right` that depends on it
    alone: (peeled, levels, exponent).  While the right factor is invariant
    under y -> y s, s an affine simple, it is B' (1 + T_s) for B' its half on
    {y : ys > y}; `peeled` holds the position k of each s so factored off, in
    the order applied, B' being what is left.  `levels[l]` holds a (w, k, ws,
    c) for each w of length l in B' or reached from it by first right
    descents: s = the k-th affine simple is w's first right descent, ws the
    number of w s (k and ws None at length 0), and c the coefficient of T_w
    in B' (0 off B').  `exponent` is the top length of B' plus the number
    of factors peeled, which bounds the product's coefficients."""
    fill, steps, lengths = table.fill, table.steps, table.lengths
    peeled = []
    while right and not len(right) % 2:  # if invariant, right is a union of pairs {y, ys}
        y0, c0 = next(iter(right.items()))
        for k, (y0s, _) in enumerate(steps[y0] or fill(y0)):
            if right.get(y0s) == c0 and all(
                    right.get((steps[y] or fill(y))[k][0]) == c for y, c in right.items()):
                right = {y: c for y, c in right.items() if steps[y][k][1]}
                peeled.append(k)
                break
        else:
            break
    levels = {}  # length -> {w: (w, k, ws, c)}
    todo = list(right)
    while todo:
        w = todo.pop()
        level = levels.setdefault(lengths[w], {})
        if w not in level:
            st = steps[w] or fill(w)
            if (k := next((i for i, (_, up) in enumerate(st) if not up), None)) is None:
                level[w] = (w, None, None, right.get(w, 0))
            else:
                level[w] = (w, k, st[k][0], right.get(w, 0))
                todo.append(st[k][0])
    return (tuple(peeled), tuple(tuple(levels[lw].values()) for lw in range(len(levels))),
            max(levels, default=0) + len(peeled))


class GenericHeckeElement:
    """Sparse combination of T_w with packed coefficients in Z[q], Iwahori
    level: `terms` maps the number of w in `RightSteps.of(datum)` to its
    nonzero coefficient.  `bound` is an upper bound on the sum of the
    absolute values of all coefficient digits.  Elements are immutable: no
    caller changes `terms` after construction, and `_plan` keeps the
    element's `_right_plan`, made on its first use as a right factor."""

    __slots__ = ("datum", "terms", "bound", "_plan")

    def __init__(self, datum: RootDatum, terms: dict, bound: int):
        self.datum, self.terms, self.bound, self._plan = datum, terms, bound, None

    def __eq__(self, other):
        return (isinstance(other, GenericHeckeElement)
                and self.datum is other.datum and self.terms == other.terms)

    def __mul__(self, other: "GenericHeckeElement") -> "GenericHeckeElement":
        # self * T_w, w in B', is (self * T_{ws}) * T_s for s the first right
        # descent of w, from the previous level (the only one kept); a
        # length-zero w relabels v -> v w.  Each (1 + T_s) peeled off the right
        # factor is applied at the end, last first.
        if other.datum is not self.datum:
            raise RootDatumError("datum mismatch")  # before anything is numbered
        table = RightSteps.of(self.datum)
        if (plan := other._plan) is None:
            plan = other._plan = _right_plan(other.terms, table)
        peeled, levels, exponent = plan
        # A letter multiplies the digit sum by at most |q - 1| + |q| = 3 and a
        # (1 + T_s) by 2; each B' has half the digit sum and top length 1 shorter.
        bound = self.bound * other.bound * 3 ** exponent
        if bound >= PACK_LIMIT:
            raise aw.CapExceeded(
                f"generic product coefficient bound reached {bound}, over the limit "
                f"{PACK_LIMIT} set by the packed Z[q] coefficients (oracle.PACK_LIMIT)")
        elements, left, e = table.elements, self.terms, aw.identity(self.datum)
        out, prev = {}, {}
        for level in levels:
            cur = {}
            for w, k, ws, cw in level:
                if k is None:
                    x = elements[w]
                    terms = left if x is e else {table.number(elements[v] * x): c
                                                 for v, c in left.items()}
                else:
                    terms = _times_s(prev[ws], k, table, {})
                cur[w] = terms
                if cw:
                    for v, c in terms.items():
                        out[v] = out.get(v, 0) + c * cw
            prev = cur
        for k in reversed(peeled):
            out = _times_s(out, k, table, dict(out))
        return GenericHeckeElement(self.datum, {v: c for v, c in out.items() if c}, bound)

    def __repr__(self):
        elements = RightSteps.of(self.datum).elements
        terms = sorted((element_to_string(elements[n]), unpack(c)) for n, c in self.terms.items())
        return " + ".join(f"({p})*T[{w}]" for w, p in terms) or "0"


def q0_mod_p(a: GenericHeckeElement, p: int) -> dict:
    """a at q -> 0 mod p, on step-table numbers, zeros left out."""
    return {n: c for n, x in a.terms.items()
            if (c := (((x + PACK_LIMIT) & (B - 1)) - PACK_LIMIT) % p)}


def phi_to_generic(idx: DoubleCosetIndex) -> GenericHeckeElement:
    """phi_w as the Bruhat-interval sum of T-basis elements (Iwahori): the
    one element of the class, kept by the datum's step table."""
    if not idx.facet.is_iwahori:
        raise RootDatumError("the generic oracle is Iwahori-only")
    table = RightSteps.of(idx.facet.datum)
    return table.phi_of(table.number(idx.rep))


def oracle_convolve_phi(w1: DoubleCosetIndex, w2: DoubleCosetIndex,
                        p: int) -> HeckeElement:
    """Full oracle pipeline: embed both phi classes into the generic algebra,
    multiply, specialize q=0 mod p, re-expand in the phi basis."""
    return generic_to_phi(phi_to_generic(w1) * phi_to_generic(w2), w1.facet, p)


def generic_to_phi(a: GenericHeckeElement, f: Facet, p: int) -> HeckeElement:
    """a at q -> 0 mod p in the phi basis of the Iwahori facet f.  Each element
    is its own class and phi_w is the sum of 1_v over lower_set(w), so the
    re-expansion is back-substitution from the longest element down, on the
    step-table numbers of `q0_mod_p`, without classes or `HeckeElement.convert`."""
    remaining, table, out = q0_mod_p(a, p), a.datum.generic_steps, {}
    while remaining:
        w = max(remaining, key=table.lengths.__getitem__)
        c = out[w] = remaining[w]
        for v in table.phi_of(w).terms:  # w itself included, which leaves remaining
            if r := (remaining.get(v, 0) - c) % p:
                remaining[v] = r
            else:
                remaining.pop(v, None)
    return HeckeElement(f, p, "phi", {DoubleCosetIndex(f, table.elements[w]): c
                                      for w, c in out.items()})


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
PRIMES_PRODUCT = math.prod(PRIMES)


def check_convolution(datum: RootDatum, length_cap: int) -> dict:
    """Compare hecke.convolve_phi_classes with the generic-Hecke oracle on all
    ordered pairs of Iwahori phi classes up to the length cap, at each of
    `PRIMES`, in the T basis at q = 0, where phi_w is the sum of T_v over
    lower_set(w); returns a summary.  Each pair's generic product is formed
    once: a failing row names the first (w1, w2, p), pairs outside and primes
    inside, and `pairs` counts the (pair, prime) cases passed before it.
    At p the pair passes when every T_v in phi is a term of the product and
    p divides c0 - [T_v in phi] for each term T_v, c0 its constant term.  The
    primes are distinct, so one pass over the product takes g, the gcd of
    their product and those residuals (1 if some T_v in phi is no term), and
    the pair fails first at the first prime that does not divide g."""
    f = aw.iwahori(datum)
    classes = [DoubleCosetIndex(f, w) for w in aw.length_ball(datum, length_cap)]
    generic = {c: phi_to_generic(c) for c in classes}
    pairs = 0
    for w1 in classes:
        for w2 in classes:
            got, _ = convolve_phi_classes(w1, w2)
            prod = generic[w1] * generic[w2]
            ones, terms = phi_to_generic(got).terms, prod.terms
            g = 1  # a T_v in phi that is no term fails the pair at every prime
            if ones.keys() <= terms.keys():
                g = math.gcd(PRIMES_PRODUCT, *[((x + PACK_LIMIT) & (B - 1)) - PACK_LIMIT
                                               - (n in ones) for n, x in terms.items()])
            for p in PRIMES:
                if g % p:
                    return {"datum": datum.spec_string, "ok": False,
                            "pairs": pairs, "failed": (repr(w1), repr(w2), p)}
                pairs += 1
    return {"datum": datum.spec_string, "ok": True, "pairs": pairs,
            "primes": list(PRIMES), "length_cap": length_cap}


def check_bruhat(datum: RootDatum, length_cap: int) -> dict:
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


def check_length(datum: RootDatum, length_cap: int) -> dict:
    elements = aw.length_ball(datum, length_cap)
    for w in elements:
        if length(w) != brute_length(w):
            return {"datum": datum.spec_string, "ok": False, "failed": repr(w)}
    return {"datum": datum.spec_string, "ok": True, "count": len(elements),
            "length_cap": length_cap}


def run_checks(data, conv_cap: int, bruhat_cap: int, length_cap: int):
    """The full cross-validation matrix; one result row per (datum, oracle)."""
    rows = []
    for datum in data:
        rows.append(("convolution", check_convolution(datum, conv_cap)))
        rows.append(("bruhat", check_bruhat(datum, bruhat_cap)))
        rows.append(("length", check_length(datum, length_cap)))
    return rows
