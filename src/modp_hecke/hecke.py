"""Mod p parahoric Hecke algebras in the indicator and phi bases.

The phi basis element attached to a double coset w is the sum of the
indicator functions of all double cosets below it in Bruhat order.  Products
of phi basis elements are again phi basis elements: the product class is the
double coset of the 0-Hecke (Demazure) product of the representatives, which
folds only the shorter word (affine_weyl.demazure_decomposition); witnesses
replay the full fold.  Indicator-basis products convert through phi.
HeckeElement and satake's Levi-Hecke and monoid-algebra elements share one
sparse F_p-combination type, FpCombination: reduction mod p, equality, sums.
"""

from __future__ import annotations

from typing import NamedTuple

from . import affine_weyl as aw
from .affine_weyl import (INTERVAL_CAP, AffineWeylElement, DoubleCosetIndex, Facet,
                          demazure_decomposition, demazure_mult, demazure_product,
                          double_coset_rep, element_to_string, enumerate_lower_interval)
from .root_datum import closure, over_cap


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


class FpCombination:
    """Sparse F_p-linear combination: `coeffs` maps basis keys to nonzero
    residues mod `prime`.  `space` is the tuple of what else two elements must
    share to be equal or added; a mismatched operand raises `error`."""

    __slots__ = ("space", "prime", "coeffs")
    error = HeckeError

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

    def is_zero(self) -> bool:
        return not self.coeffs

    def _check_operand(self, other):
        if (type(other), other.space, other.prime) != (type(self), self.space, self.prime):
            raise self.error("operand mismatch")

    def __add__(self, other):
        self._check_operand(other)
        out = dict(self.coeffs)
        for k, c in other.coeffs.items():
            out[k] = out.get(k, 0) + c
        return self._like(out)

    def scale(self, c: int):
        return self._like({k: v * c for k, v in self.coeffs.items()})


class HeckeElement(FpCombination):
    """Element of the parahoric Hecke algebra, over double-coset indices of
    one facet, in the indicator or the phi basis; `space` is (facet, basis)."""

    __slots__ = ()
    facet = property(lambda self: self.space[0])
    basis = property(lambda self: self.space[1])

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

    def convert(self, basis: str, cap: int | None = INTERVAL_CAP) -> "HeckeElement":
        if basis == self.basis:
            return self
        if basis == "indicator":
            out = {}
            for idx, c in self.coeffs.items():
                for v in enumerate_lower_interval(idx, cap):
                    out[v] = out.get(v, 0) + c
            return HeckeElement(self.facet, self.prime, "indicator", out)
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
        terms = sorted(((element_to_string(idx.rep), c)
                        for idx, c in self.coeffs.items()))
        return {"facet": list(self.facet.indices), "prime": self.prime,
                "basis": self.basis,
                "terms": [{"rep": r, "coeff": c} for r, c in terms]}

    def __repr__(self):
        sym = "1" if self.basis == "indicator" else "phi"
        if not self.coeffs:
            return "0"
        terms = sorted(((element_to_string(idx.rep), c)
                        for idx, c in self.coeffs.items()))
        return " + ".join(f"{c}*{sym}[{r}]" if c != 1 else f"{sym}[{r}]"
                          for r, c in terms)


def phi_basis_element(idx: DoubleCosetIndex, prime: int) -> HeckeElement:
    """phi_w as a single phi-basis term; convert() expands it to the sum of
    the indicators of the classes below w (enumerate_lower_interval)."""
    return HeckeElement(idx.facet, prime, "phi", {idx: 1})


class ConvolutionWitness(NamedTuple):
    """Replayable record of one phi-class convolution: an immutable named
    tuple, so it compares and hashes like a tuple.  The fields are the
    interned elements (the class reps w1, w2 and result, the Omega parts tau1,
    tau2 and the fold), so replay compares by identity; `to_json` gives their
    strings."""

    facet: Facet
    w1: AffineWeylElement
    w2: AffineWeylElement
    tau1: AffineWeylElement
    tau2: AffineWeylElement
    word1: tuple[int, ...]  # tau1-conjugated word of w1 (Omega part pulled left)
    word2: tuple[int, ...]
    folded: AffineWeylElement
    result: AffineWeylElement

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
    affine_weyl.demazure_decomposition."""
    if w1.facet is not w2.facet:
        raise HeckeError("facet mismatch")
    tau1, word1, word2, folded, tau2 = demazure_decomposition(w1.rep, w2.rep)
    out = double_coset_rep(tau1 * folded * tau2, w1.facet)
    return out, ConvolutionWitness(w1.facet, w1.rep, w2.rep, tau1, tau2,
                                   word1, word2, folded, out.rep)


def convolve(a: HeckeElement, b: HeckeElement,
             cap: int | None = INTERVAL_CAP) -> HeckeElement:
    """Convolution product, computed bilinearly in the phi basis; the result
    is returned in the basis of the left operand."""
    a._check_compatible(b)
    pa = a.convert("phi", cap)
    pb = b.convert("phi", cap)
    out = {}
    for i1, c1 in pa.coeffs.items():
        for i2, c2 in pb.coeffs.items():
            prod = double_coset_rep(demazure_mult(i1.rep, i2.rep), a.facet)
            out[prod] = out.get(prod, 0) + c1 * c2
    result = HeckeElement(a.facet, a.prime, "phi", out)
    return result.convert(a.basis, cap)


def point_count_polynomial(idx: DoubleCosetIndex, cap: int | None = INTERVAL_CAP):
    """Coefficients (low to high) of sum_u q^{ell(u)} over the minimal coset
    representatives u with _f u^f <= idx: the cell count of the associated
    Schubert scheme over F_q.  The constant term is always 1.  The u are the
    right W_f-cosets of W_f c W_f, c below idx, reached from c.rep by u ->
    (s u)^f.  `cap` bounds the classes walked and the cells counted."""
    f, below = idx.facet, enumerate_lower_interval(idx, cap)
    coeffs = [0] * (idx.length + 1)  # after the capped walk: the length is bounded
    cells = 0
    for c in below:
        cosets = closure([c.rep], lambda u: (aw.min_coset_rep(s * u, f) for s in f.gens), cap)
        cells += len(cosets)
        if cap is not None and cells > cap:
            raise over_cap("Schubert cells", cap)
        for u in cosets:
            coeffs[aw.length(u)] += 1
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def poly_string(coeffs) -> str:
    """Human form of a coefficient tuple, e.g. (1, 1) -> '1 + q'."""
    if not coeffs:
        return "0"
    parts = []
    for i, c in enumerate(coeffs):
        if c == 0:
            continue
        if i == 0:
            parts.append(str(c))
        else:
            qpow = "q" if i == 1 else f"q^{i}"
            parts.append(qpow if c == 1 else f"{c}*{qpow}")
    return " + ".join(parts) if parts else "0"
