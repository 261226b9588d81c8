"""Reference helpers that only the tests use, kept out of the library."""

from fractions import Fraction
from functools import cache
import gc
import hashlib
import itertools
import json
import math

from modp_hecke import affine_weyl as aw
from modp_hecke import hecke as hk
from modp_hecke.affine_weyl import AffineWeylElement, Facet
from modp_hecke.oracle import GenericHeckeElement, RightSteps, q0_mod_p, unpack
from modp_hecke.root_datum import RootDatum, RootDatumError, closure, from_json, preset
from modp_hecke.satake import LeviDatum, levi_datum, minimal_levi, satake_phi


# The library's integer kernels written as plain index sums, for the tests
# that pin each `sum(map(mul, a, b))` dot product to its definition.

def mat_mul(a, b):
    """The square matrix product a b by the triple loop over indices."""
    n = len(a)
    return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n))
                 for i in range(n))


def reflection_matrix(d, root):
    """The matrix of s_alpha on ambient coordinates, x -> x - <alpha, x> alpha^vee:
    entry (r, c) is [r == c] - alpha^vee[r] alpha[c], with alpha[c] = 0 for c >= n."""
    crt = d.coroot(root)
    return tuple(tuple(int(r == c) - crt[r] * (root[c] if c < d.n else 0)
                       for c in range(d.dim)) for r in range(d.dim))


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
    h = max(map(sum, d.highest_roots))
    b = tuple(Fraction(1, h + 1) if i < d.n else Fraction(0) for i in range(d.dim))
    wb = tuple(t + x for t, x in zip(w.translation, w.finite.act(b)))
    count = 0
    for rt in d.positive_roots:
        lo, hi = sorted((pair(d, rt, b), pair(d, rt, wb)))
        count += math.floor(hi) - math.floor(lo)  # neither end is an integer
    return count


def poly_mul(a, b) -> tuple:
    """The product of two coefficient tuples (low to high), trailing zeros
    dropped."""
    out = [0] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def from_finite(datum: RootDatum, u) -> AffineWeylElement:
    """The finite Weyl element u as the affine element t_0 u."""
    return AffineWeylElement(datum, datum.zero_coweight(), u)


def demazure_mult(a: AffineWeylElement, b: AffineWeylElement) -> AffineWeylElement:
    """0-Hecke monoid product a * b."""
    tau_a, _, _, folded, tau_b = aw.demazure_decomposition(a, b)
    return tau_a * folded * tau_b


def specialize_q0_mod_p(a: GenericHeckeElement, p: int, facet: Facet) -> hk.HeckeElement:
    """Evaluate q -> 0, reduce mod p, reindex by double cosets (Iwahori only:
    each element is its own double coset)."""
    if not facet.is_iwahori:
        raise RootDatumError("the generic oracle is Iwahori-only")
    at_q0 = q0_mod_p(a, p)  # keyed by the step-table numbers of a's datum
    elements = a.datum.generic_steps.elements
    return hk.HeckeElement(facet, p, "indicator",
                           {aw.DoubleCosetIndex(facet, elements[n]): c for n, c in at_q0.items()})


def cls(datum, facet: Facet, text: str):
    """The class at facet of the element the string names."""
    return aw.double_coset_rep(aw.parse_element(datum, text), facet)


def all_reduced_words(w: AffineWeylElement) -> list:
    """Every reduced word of w's W_af part, as index tuples: each left
    descent s of w followed by every reduced word of s w."""
    word, _ = aw.reduced_word(w)
    if not word:
        return [()]
    sys = aw.simple_system(w.datum)
    return [(i,) + rest for i in aw.left_descents(w)
            for rest in all_reduced_words(sys.simple(i) * w)]


def w0_elements(d) -> set:
    """The finite Weyl group, by closure under the simple reflections."""
    return closure([d.weyl_identity], lambda w: (s * w for s in d.simple_reflections))


def is_antidominant(d, z) -> bool:
    """<alpha, z> <= 0 for every positive root alpha."""
    return all(d.pair(rt, z) <= 0 for rt in d.positive_roots)


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


def generic(d: RootDatum, coeffs: dict) -> GenericHeckeElement:
    """The generic Hecke element with packed coefficients {w: c}: the keys
    numbered by d's step table, zeros left out, and the bound the digit sum."""
    number = RightSteps.of(d).number
    return GenericHeckeElement(d, {number(w): c for w, c in coeffs.items() if c},
                               sum(sum(map(abs, unpack(c))) for c in coeffs.values()))


def generic_coeffs(a: GenericHeckeElement) -> dict:
    """The terms of a generic Hecke element keyed by element, not by number."""
    elements = RightSteps.of(a.datum).elements
    return {elements[n]: c for n, c in a.terms.items()}


def t_basis(w: AffineWeylElement) -> GenericHeckeElement:
    """The generic Hecke basis element T_w."""
    return generic(w.datum, {w: 1})


def scale(a: hk.FpCombination, c: int) -> hk.FpCombination:
    """c times a sparse F_p-combination, of a's type, space and prime."""
    return a._like({k: v * c for k, v in a.coeffs.items()})


@cache
def wf_elements(f: Facet) -> tuple:
    """W_f, sorted by `element_sort_key`, by closure under the facet's generators."""
    seen = closure([aw.identity(f.datum)], lambda w: (w * g for g in f.gens))
    return tuple(sorted(seen, key=aw.element_sort_key))


def w_max(idx) -> AffineWeylElement:
    """The longest element of the double coset W_f rep W_f, by a sweep of W_f
    on both sides."""
    wf = wf_elements(idx.facet)
    return max({u * idx.rep * v for u in wf for v in wf}, key=aw.length)


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


# -- the atlas: one digest of both main results per (datum, finite facet) --------

# Datum JSON documents of explicit lattices, neither `sc` nor `ad`: A3 with
# X/Q^vee = Z/2, A1xA1 with the diagonal lattice, and A1 and A2 each with a
# central torus.
EXPLICIT_LATTICES = (
    '{"type":"A3","lattice_basis":[[2,-1,0],[-1,2,-1],[0,1,0]]}',
    '{"type":"A1xA1","lattice_basis":[[2,0],[1,1]]}',
    '{"type":"A1","lattice_basis":[[1,1],[1,-1]]}',
    '{"type":"A2","lattice_basis":[[2,-1,0],[-1,2,0],[0,0,1]]}')

# (preset spec or datum JSON document, radius of the length ball) of each
# datum in `tests/atlas.json`.
ATLAS_DATA = (("A1:sc", 6), ("A1:ad", 6), ("A2:sc", 4), ("A2:ad", 4), ("C2:sc", 4),
              ("G2:sc", 4), ("A1xA1:sc", 4), ("A3:sc", 3), ("B3:sc", 3), ("C3:sc", 3),
              *((doc, 3) for doc in EXPLICIT_LATTICES))


def fresh_datum(spec: str) -> RootDatum:
    """A new datum, with empty memos, of a preset spec or of a datum JSON
    document (one starting with '{'), as the command line reads them."""
    if spec.startswith("{"):
        return from_json(spec)
    return RootDatum(preset(spec).cartan_datum)


def atlas_rows(f: Facet, radius: int) -> list:
    """The canonical outputs at facet f over the classes of the length ball of
    the given radius, sorted by rep string: per class its rep, point count,
    indicator expansion at p = 2 and `satake_phi` terms at p = 2 for every
    standard Levi, then one row of the product class of every ordered pair
    of those classes of length <= 2."""
    d = f.datum
    classes = sorted({aw.double_coset_rep(w, f) for w in aw.length_ball(d, radius)},
                     key=lambda c: str(c.rep))
    levis = [levi_datum(d, j_m) for r in range(d.n + 1)
             for j_m in itertools.combinations(range(d.n), r)]
    rows = [{"rep": str(idx.rep),
             "point_count": list(hk.point_count_polynomial(idx)),
             "indicator": hk.phi_basis_element(idx, 2).convert("indicator").to_json(),
             "satake": [satake_phi(idx, levi, f, 2).to_json()["terms"] for levi in levis]}
            for idx in classes]
    short = [c for c in classes if c.length <= 2]
    rows.append({"products": [[str(a.rep), str(b.rep), str(hk.convolve_phi_classes(a, b)[0].rep)]
                              for a in short for b in short]})
    return rows


def atlas_digests(spec: str, radius: int) -> dict:
    """{facet indices as a list string: the first 16 hex digits of the SHA-256
    of `atlas_rows` in sorted-key JSON}, over every finite facet of a fresh
    datum (`fresh_datum`), so no memo of an earlier computation is read."""
    d = fresh_datum(spec)
    return {str(list(f.indices)): hashlib.sha256(
                json.dumps(atlas_rows(f, radius), sort_keys=True).encode()).hexdigest()[:16]
            for f in finite_facets(d)}


def write_atlas(path: str):
    """Regenerate the atlas file: {spec: {"radius": r, "digests": atlas_digests}}."""
    doc = {spec: {"radius": r, "digests": atlas_digests(spec, r)} for spec, r in ATLAS_DATA}
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
