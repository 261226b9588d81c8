"""Mod p parahoric Hecke algebras in the indicator and phi bases.

The phi basis element attached to a double coset w is the sum of the
indicator functions of all double cosets below it in Bruhat order.  Products
of phi basis elements are again phi basis elements: the product class is the
double coset of the 0-Hecke (Demazure) product of the representatives, which
folds only the shorter word (affine_weyl.demazure_decomposition); witnesses
replay the full fold.  Indicator-basis products convert through phi.
HeckeElement and satake's Levi-Hecke and monoid-algebra elements share one
sparse F_p-combination type, FpCombination: reduction mod p, equality and
one printer of terms.  Every sum of terms, here and in satake, is `sum_terms`.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import chain

from . import affine_weyl as aw
from .affine_weyl import (INTERVAL_CAP, DoubleCosetIndex, Facet, demazure_decomposition,
                          demazure_product, double_coset_rep, element_to_string,
                          enumerate_lower_interval)
from .root_datum import over_cap


class HeckeError(ValueError):
    pass


# Miller-Rabin with the first 13 prime bases decides primality exactly below
# this bound (Sorenson and Webster, Math. Comp. 86, 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981


def _check_prime(p: int):
    if not isinstance(p, int) or p < 2:
        raise HeckeError(f"coefficient modulus must be a prime >= 2, got {p}")
    if p >= _MR_BOUND:
        raise HeckeError(f"coefficient modulus must be below {_MR_BOUND}, "
                         "the bound of the deterministic primality test")
    if not _is_prime(p):
        raise HeckeError(f"coefficient modulus {p} is not prime")


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for 2 <= n < _MR_BOUND."""
    if n in _MR_BASES:
        return True
    if any(n % b == 0 for b in _MR_BASES):
        return False
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def sum_terms(terms) -> dict:
    """{key: sum of its coefficients} over (key, coefficient) terms; the
    constructor that takes the dict drops the keys that are 0 mod p."""
    out = {}
    for k, c in terms:
        out[k] = out.get(k, 0) + c
    return out


class FpCombination:
    """Sparse F_p-linear combination: `coeffs` maps basis keys to nonzero
    residues mod `prime`.  `space` is the tuple of what else two elements must
    share to be equal or added; a mismatched operand raises `error`.  `_terms`
    gives the terms for JSON, sorted by the string of the key (of its rep, for
    a class), and repr prints each as c*sym[rep]."""

    __slots__ = ("space", "prime", "coeffs")
    error = HeckeError
    sym = None  # the basis symbol of repr: 1, phi or 1M

    def __init__(self, space: tuple, prime: int, coeffs: dict):
        _check_prime(prime)
        self.space = space
        self.prime = prime
        self.coeffs = {k: c % prime for k, c in coeffs.items() if c % prime}

    def _like(self, coeffs: dict):  # same type, space and prime
        out = object.__new__(type(self))
        FpCombination.__init__(out, self.space, self.prime, coeffs)
        return out

    def __eq__(self, other):
        return (type(other) is type(self) and self.space == other.space
                and self.prime == other.prime and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((type(self), self.space, self.prime, frozenset(self.coeffs.items())))

    def _check_operand(self, other):
        if (type(other), other.space, other.prime) != (type(self), self.space, self.prime):
            raise self.error("operand mismatch")

    def __add__(self, other):
        self._check_operand(other)
        return self._like(sum_terms(chain(self.coeffs.items(), other.coeffs.items())))

    def _terms(self) -> list:
        return [{"rep": r, "coeff": c} for r, c in sorted(
            (element_to_string(k.rep if isinstance(k, DoubleCosetIndex) else k), c)
            for k, c in self.coeffs.items())]

    def __repr__(self):
        terms = ((t["coeff"], t["rep"]) for t in self._terms())
        return " + ".join((f"{c}*" if c != 1 else "") + f"{self.sym}[{r}]"
                          for c, r in terms) or "0"


class HeckeElement(FpCombination):
    """Element of the parahoric Hecke algebra, over double-coset indices of
    one facet, in the indicator or the phi basis; `space` is (facet, basis)."""

    __slots__ = ()
    facet = property(lambda self: self.space[0])
    basis = property(lambda self: self.space[1])
    sym = property(lambda self: "1" if self.basis == "indicator" else "phi")

    def __init__(self, facet: Facet, prime: int, basis: str, coeffs: dict):
        super().__init__((facet, basis), prime, coeffs)
        if basis not in ("indicator", "phi"):
            raise HeckeError(f"unknown basis {basis!r}")
        if any(idx.facet is not facet for idx in coeffs):
            raise HeckeError("coefficient indexed by a foreign facet")

    def _check_compatible(self, other):
        if self.facet is not other.facet:
            raise HeckeError("facet mismatch")
        if self.prime != other.prime:
            raise HeckeError("prime mismatch")

    def convert(self, basis: str, cap: int = INTERVAL_CAP) -> "HeckeElement":
        if basis == self.basis:
            return self
        if basis == "indicator":
            return HeckeElement(self.facet, self.prime, "indicator", sum_terms(
                (v, c) for idx, c in self.coeffs.items()
                for v in enumerate_lower_interval(idx, cap)))
        # indicator -> phi by back-substitution in one pass from the longest
        # length down: the classes below idx are shorter, so only shorter layers change.
        remaining = dict(self.coeffs)  # a class stays, at 0 if cancelled, until its layer
        layers: dict[int, list] = {}
        for idx in remaining:
            layers.setdefault(idx.length, []).append(idx)
        out = {}
        while layers:
            for idx in layers.pop(max(layers)):
                if c := remaining.pop(idx):
                    out[idx] = c
                    for v in enumerate_lower_interval(idx, cap):
                        if v is not idx:
                            if v not in remaining:
                                layers.setdefault(v.length, []).append(v)
                            remaining[v] = (remaining.get(v, 0) - c) % self.prime
        return HeckeElement(self.facet, self.prime, "phi", out)

    def __mul__(self, other: "HeckeElement") -> "HeckeElement":
        return convolve(self, other)

    def to_json(self):
        return {"facet": list(self.facet.indices), "prime": self.prime,
                "basis": self.basis, "terms": self._terms()}


def phi_basis_element(idx: DoubleCosetIndex, prime: int) -> HeckeElement:
    """phi_w as a single phi-basis term; convert() expands it to the sum of
    the indicators of the classes below w (enumerate_lower_interval)."""
    return HeckeElement(idx.facet, prime, "phi", {idx: 1})


class ConvolutionWitness(namedtuple(
        "ConvolutionWitness", "facet w1 w2 tau1 tau2 word1 word2 folded result")):
    """Replayable record of one phi-class convolution: an immutable named
    tuple, so it compares and hashes like a tuple.  Its fields are the facet,
    the class reps w1 and w2, the Omega parts tau1 and tau2, the words word1
    (of w1, tau1-conjugated: Omega part pulled left) and word2 (of w2), their
    fold `folded` and the rep `result` of the class of tau1 * folded * tau2.
    The elements are the interned ones, so replay compares by identity;
    `to_json` gives their strings."""

    __slots__ = ()

    def replay(self) -> DoubleCosetIndex:
        """Re-fold the words and re-reduce; HeckeError if either disagrees
        with the recorded `folded` or `result`."""
        folded = demazure_product(self.facet.datum, self.word1 + self.word2)
        if folded is not self.folded:
            raise HeckeError(f"witness fold gives {folded}, not the recorded {self.folded}")
        out = double_coset_rep(self.tau1 * folded * self.tau2, self.facet)
        if out.rep is not self.result:
            raise HeckeError(f"witness class is {out.rep}, not the recorded {self.result}")
        return out

    def to_json(self):
        return {"facet": list(self.facet.indices), "w1": str(self.w1), "w2": str(self.w2),
                "tau1": str(self.tau1), "tau2": str(self.tau2),
                "word1": list(self.word1), "word2": list(self.word2),
                "folded": str(self.folded), "result": str(self.result)}


def convolve_phi_classes(w1: DoubleCosetIndex, w2: DoubleCosetIndex):
    """Product class of phi_{w1} * phi_{w2} = phi_w, with a witness: the
    double coset of tau1 * fold(word1 ++ word2) * tau2, the decomposition of
    affine_weyl.demazure_decomposition.  The pair is kept in w1's `_products`
    by w2, so a repeated call returns the same class and witness objects."""
    if w1.facet is not w2.facet:
        raise HeckeError("facet mismatch")
    entry = w1._products.get(w2)
    if entry is None:
        tau1, word1, word2, folded, tau2 = demazure_decomposition(w1.rep, w2.rep)
        out = double_coset_rep(tau1 * folded * tau2, w1.facet)
        entry = w1._products.setdefault(w2, (out, ConvolutionWitness(
            w1.facet, w1.rep, w2.rep, tau1, tau2, word1, word2, folded, out.rep)))
    return entry


def convolve(a: HeckeElement, b: HeckeElement,
             cap: int = INTERVAL_CAP) -> HeckeElement:
    """Convolution product, computed bilinearly in the phi basis from the
    class products of `convolve_phi_classes`, which keeps each one; the
    result is returned in the basis of the left operand."""
    a._check_compatible(b)
    pa = a.convert("phi", cap)
    pb = b.convert("phi", cap)
    result = HeckeElement(a.facet, a.prime, "phi", sum_terms(
        (convolve_phi_classes(i1, i2)[0], c1 * c2)
        for i1, c1 in pa.coeffs.items() for i2, c2 in pb.coeffs.items()))
    return result.convert(a.basis, cap)


def point_count_polynomial(idx: DoubleCosetIndex, cap: int = INTERVAL_CAP):
    """Coefficients (low to high) of sum_u q^{ell(u)} over the cells of the
    Schubert scheme of idx over F_q: the u <= idx.rep in W^f, found by the
    lifting walk `affine_weyl._lower_quotient`.  The constant term is 1 and
    the degree l(idx.rep).  `cap` bounds the cells, counted as the walk finds
    them.  It raises before walking when l(idx.rep) + 1 > cap, as the cells
    along idx.rep's reduced word have every length from 0 to l(idx.rep)."""
    if idx.length + 1 > cap:
        raise over_cap("Schubert cells", cap)
    coeffs = [0] * (idx.length + 1)
    for cells, u in enumerate(aw._lower_quotient(idx.rep, idx.facet.gens), 1):
        if cells > cap:
            raise over_cap("Schubert cells", cap)
        coeffs[aw.length(u)] += 1
    return tuple(coeffs)


def poly_string(coeffs) -> str:
    """Human form of a coefficient tuple, e.g. (1, 1) -> '1 + q'."""
    parts = []
    for i, c in enumerate(coeffs):
        if c == 0:
            continue
        if i == 0:
            parts.append(str(c))
        else:
            qpow = "q" if i == 1 else f"q^{i}"
            parts.append(qpow if c == 1 else f"{c}*{qpow}")
    return " + ".join(parts) or "0"
