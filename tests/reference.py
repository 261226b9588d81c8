"""Reference helpers that only the tests use, kept out of the library."""

from fractions import Fraction
from functools import cache
import gc
import itertools
import math

from modp_hecke import affine_weyl as aw
from modp_hecke.affine_weyl import AffineWeylElement, Facet
from modp_hecke.oracle import GenericHeckeElement
from modp_hecke.root_datum import RootDatumError, closure, from_json
from modp_hecke.satake import LeviDatum, levi_datum, minimal_levi


# The library's integer kernels written as plain index sums, for the tests
# that pin each `sum(map(mul, a, b))` dot product to its definition.

def mat_mul(a, b):
    """The square matrix product a b by the triple loop over indices."""
    n = len(a)
    return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n))
                 for i in range(n))


def pair(d, root, coweight) -> int:
    """<alpha, nu>: the sum over the n simple-root indices."""
    return sum(root[i] * coweight[i] for i in range(d.n))


def act_root(u, root):
    """u on a root in simple-root coordinates: the root times the top-left n x n
    block of u's inverse."""
    n = u.datum.n
    minv = u.inverse().matrix
    return tuple(sum(root[i] * minv[i][j] for i in range(n)) for j in range(n))


def aff_act(w: AffineWeylElement, aroot):
    """Action on affine roots: t_lambda u . (beta, k) = (u beta, k - <u beta, lambda>)."""
    beta, k = aroot
    ubeta = act_root(w.finite, beta)
    return (ubeta, k - pair(w.datum, ubeta, w.translation))


def length(w: AffineWeylElement) -> int:
    """The Iwahori-Matsumoto closed form: over the positive roots alpha, with m =
    <alpha, lambda>, |m - 1| when u^-1 alpha is negative and |m| otherwise."""
    d, uinv = w.datum, w.finite.inverse()
    total = 0
    for rt in d.positive_roots:
        m = pair(d, rt, w.translation)
        total += abs(m - 1) if any(c < 0 for c in act_root(uinv, rt)) else abs(m)
    return total


def x_coords(d, coweight):
    """Coordinates in the lattice basis by the index sums, or None off X."""
    out = []
    for col in d.x_inverse_cols:
        c, rem = divmod(sum(v * a for v, a in zip(coweight, col)), d.x_inverse_den)
        if rem:
            return None
        out.append(c)
    return tuple(out)


def coweight_from_x_coords(d, coords):
    """The coweight with the given lattice coordinates, by the index sums."""
    return tuple(sum(c * b[i] for c, b in zip(coords, d.x_basis)) for i in range(d.dim))


def coordinate_functionals(basis):
    """`root_datum._coordinate_functionals` by Gauss-Jordan over the rationals:
    (den, cols) with den the lcm of the denominators of the inverse and
    cols[j] its j-th column times den; None when the basis is singular."""
    n = len(basis)
    aug = [[Fraction(basis[i][j]) for j in range(n)] + [Fraction(i == j) for j in range(n)]
           for i in range(n)]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if piv is None:
            return None
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [e * inv for e in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [e - f * g for e, g in zip(aug[r], aug[col])]
    inv = [row[n:] for row in aug]
    den = math.lcm(*(v.denominator for row in inv for v in row))
    return den, tuple(tuple(int(row[j] * den) for row in inv) for j in range(n))


def brute_length(w: AffineWeylElement) -> int:
    """`oracle.brute_length` at the base-alcove point b itself, in Fractions:
    b pairs to height / (h + 1) with every positive root, and the count adds
    the integers strictly between <alpha, b> and <alpha, w.b>."""
    d = w.datum
    h = max(sum(theta) for theta, _ in d.highest_roots)
    b = tuple(Fraction(1, h + 1) if i < d.n else Fraction(0) for i in range(d.dim))
    wb = tuple(t + x for t, x in zip(w.translation, w.finite.act(b)))
    count = 0
    for rt in d.positive_roots:
        lo, hi = sorted((pair(d, rt, b), pair(d, rt, wb)))
        count += math.floor(hi) - math.floor(lo)  # neither end is an integer
    return count


def in_w_m(levi: LeviDatum, w: AffineWeylElement) -> bool:
    """Membership in W_M = X x| W0(M): the finite part of w fixes lam."""
    return w.finite.act(levi.lam) == levi.lam


def finite_facets(d) -> list:
    """Every facet of d whose W_f is finite, the Iwahori facet included: the
    subsets of nodes that leave out a node of each component."""
    indices = aw.simple_system(d).indices
    out = []
    for r in range(len(indices)):
        for J in itertools.combinations(indices, r):
            try:
                out.append(aw.facet(d, J))
            except RootDatumError:
                pass  # J holds a whole component block
    return out


def proper_levis(d) -> list:
    """The minimal Levi and, in rank above 1, the Levi of each simple root."""
    return [minimal_levi(d)] + [levi_datum(d, (i,)) for i in range(d.n) if d.n > 1]


def t_basis(w: AffineWeylElement) -> GenericHeckeElement:
    """The generic Hecke basis element T_w."""
    return GenericHeckeElement(w.datum, {w: 1}, 1)


@cache
def wf_elements(f: Facet) -> tuple:
    """W_f, sorted by `element_sort_key`, by closure under the facet's generators."""
    seen = closure([aw.identity(f.datum)], lambda w: (w * g for g in f.gens))
    return tuple(sorted(seen, key=aw.element_sort_key))


def brute_double_coset_rep(w: AffineWeylElement, f: Facet) -> AffineWeylElement:
    """The representative _f w^f by a sweep of W_f: the unique longest element
    among the minimal coset representatives {(v w)^f : v in W_f}.  It returns
    the element, not its class, since making a class runs `double_coset_rep`."""
    candidates = {aw.min_coset_rep(v * w, f) for v in wf_elements(f)}
    best = max(candidates, key=aw.length)
    ties = [c for c in candidates if aw.length(c) == aw.length(best)]
    if len(ties) != 1:
        raise RootDatumError("double coset has no unique maximal min-rep")
    return best


# A2 and B2 on the same explicit lattice: two data that a memo keyed by the
# datum's address, or by its lattice, would mix up.
ALTERNATING_DOCS = (dict(type="A2", rank=2, lattice_basis=[[1, 0], [0, 1]]),
                    dict(type="B2", rank=2, lattice_basis=[[1, 0], [0, 1]]))


def alternating_data(rounds: int):
    """Yields (k, datum from ALTERNATING_DOCS[k]) for k = 0, 1 in turn, `rounds`
    times, with a collection before each is built, so a new datum may reuse
    the address of one just freed."""
    gc.freeze()  # keep what earlier tests allocated out of the collections below
    try:
        for _ in range(rounds):
            for k, doc in enumerate(ALTERNATING_DOCS):
                gc.collect()
                yield k, from_json(doc)
    finally:
        gc.unfreeze()
