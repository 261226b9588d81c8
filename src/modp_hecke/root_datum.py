"""Finite root systems, coweight lattices and finite Weyl groups.

All arithmetic is exact and on integers alone.  Roots are stored as integer
vectors in the basis of simple roots; coweights as integer vectors in
"ambient" coordinates, which are fundamental-coweight coordinates on the
semisimple part followed by central-torus coordinates.  In ambient
coordinates the pairing of the i-th simple root with a coweight x is simply
x[i], so everything downstream reduces to small integer dot products.

A finite Weyl element u is held as the permutation it induces on the 2N
roots, positive roots first, as in CHEVIE (Geck, Hiss, Lubeck, Malle and
Pfeiffer, AAECC 7, 1996): products compose permutations, and u^-1 negates
the positive roots its inverse permutation sends past index N.  Its matrix
is read off that inverse, and its canonical word off the point u.rho_check
(Humphreys, Reflection Groups and Coxeter Groups, §1.12).  The one
elimination, `_coordinate_functionals`, is fraction-free and sets up the
lattice X.

Every memo of the package lives on the RootDatum it belongs to: finite and
affine Weyl elements are interned per datum and carry their own memos, and
the datum holds the tables keyed by more than one element.  Nothing is
cached at module level except the preset data.
The roots, the length balls of W, the anti-dominant coweights and the
Satake walk all come from one breadth-first search, `closure`; the classes
below a class and the cells of a point count come from
`affine_weyl._lower_quotient`, a lifting walk.
"""

from __future__ import annotations

from collections import namedtuple
import itertools
import json
import math
from operator import mul

Root = tuple[int, ...]      # coordinates in the simple-root basis
Coweight = tuple[int, ...]  # ambient coordinates

VALID_RANKS = {
    "A": range(1, 100),
    "B": range(2, 100),
    "C": range(2, 100),
    "D": range(3, 100),
    "E": range(6, 9),
    "F": range(4, 5),
    "G": range(2, 3),
}


class RootDatumError(ValueError):
    pass


class CapExceeded(RuntimeError):
    """An enumeration guard (interval size, walk size or word length cap) was hit."""


def over_cap(what: str, cap: int) -> CapExceeded:
    # Names cap + 1, where a growing set stops, so that the message does not
    # depend on how much of the set was memoized.
    return CapExceeded(f"{what} reached {cap + 1} elements, over the limit {cap} "
                       "set by --cap (parameter cap)")


def closure(seeds, neighbours, cap=math.inf):
    """Everything reachable from `seeds` through `neighbours(x)` (an iterable),
    found level by level.  It stops as soon as it has found more than `cap`
    elements (by default it never does), so a caller reads an overflow off
    the size."""
    seen = set(seeds)
    frontier = list(seen)
    while frontier and len(seen) <= cap:
        nxt = []
        for x in frontier:
            for y in neighbours(x):
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
                    if len(seen) > cap:
                        return seen
        frontier = nxt
    return seen


def cartan_matrix(letter: str, rank: int) -> list[list[int]]:
    """Cartan matrix a[i][j] = <alpha_i, alpha_j^vee> in Bourbaki numbering."""
    if letter not in VALID_RANKS or rank not in VALID_RANKS[letter]:
        raise RootDatumError(f"invalid Dynkin type {letter}{rank}")
    n = rank
    a = [[2 * (i == j) for j in range(n)] for i in range(n)]

    def bond(i, j, aij=-1, aji=-1):
        a[i][j] = aij
        a[j][i] = aji

    if letter in ("A", "B", "C", "G", "F"):
        for i in range(n - 1):
            bond(i, i + 1)
        if letter == "B":
            bond(n - 2, n - 1, -2, -1)  # alpha_n short
        if letter == "C":
            bond(n - 2, n - 1, -1, -2)  # alpha_n long
        if letter == "G":
            bond(0, 1, -1, -3)          # alpha_1 short, alpha_2 long
        if letter == "F":
            bond(1, 2, -2, -1)          # alpha_1, alpha_2 long
    elif letter == "D":
        for i in range(n - 2):
            bond(i, i + 1)
        bond(n - 3, n - 1)
    elif letter == "E":
        chain = [0, 2, 3, 4, 5, 6, 7][: n - 1]  # Bourbaki: 2 hangs off 4
        for i, j in zip(chain, chain[1:]):
            bond(i, j)
        bond(1, 3)
    return a


class CartanDatum(namedtuple("CartanDatum", "components lattice")):
    """Concrete presentation of a split reductive group, an immutable named
    tuple: the Dynkin `components`, (letter, rank) pairs, and the coweight
    `lattice` choice, 'sc', 'ad' or a tuple of integer basis rows."""

    __slots__ = ()

    def __new__(cls, components, lattice):
        for letter, rank in components:
            if letter not in VALID_RANKS or rank not in VALID_RANKS[letter]:
                raise RootDatumError(f"invalid Dynkin type {letter}{rank}")
        if lattice not in ("sc", "ad"):
            rows = lattice
            if not rows or any(len(r) != len(rows[0]) for r in rows):
                raise RootDatumError("lattice basis must be a rectangular matrix")
            if any(not isinstance(e, int) for r in rows for e in r):
                raise RootDatumError("lattice basis must have integer entries")
        return super().__new__(cls, components, lattice)

    @classmethod
    def _make(cls, iterable):  # so that _replace runs the checks too
        return cls(*iterable)


class FiniteWeylElement:
    """Element u of the finite Weyl group, held as the permutation `perm` it
    induces on the datum's `roots`, u(roots[k]) = roots[perm[k]], and its
    inverse `inv_perm`, both fixed at construction.

    `matrix` is u on ambient coweight coordinates (column-vector convention):
    row i < n is <alpha_i, u x> = <u^-1 alpha_i, x>, so u^-1 alpha_i padded
    with zeros, and the central rows, which W fixes, are the identity's.
    Elements are interned per datum by `perm`, so equality is identity, and
    hash as their matrix.  Each keeps lazy memos of its products, inverse and
    canonical word; `act` on coweights has no memo.
    """

    __slots__ = ("datum", "perm", "inv_perm", "matrix", "_hash", "_inv", "_products", "_word")

    def __init__(self, datum: "RootDatum", perm: tuple[int, ...]):
        self.datum = datum
        self.perm = perm
        self.inv_perm = inv = tuple(sorted(range(len(perm)), key=perm.__getitem__))
        pad, roots, index = (0,) * (datum.dim - datum.n), datum.roots, datum.root_index
        self.matrix = tuple([roots[inv[index[a]]] + pad for a in datum.simple_roots]) + tuple(
            tuple(int(i == j) for j in range(datum.dim)) for i in range(datum.n, datum.dim))
        self._hash = hash(self.matrix)
        self._inv = None
        self._products: dict[FiniteWeylElement, FiniteWeylElement] = {}
        self._word = None

    def __hash__(self):
        return self._hash

    def __mul__(self, other: "FiniteWeylElement") -> "FiniteWeylElement":
        prod = self._products.get(other)
        if prod is None:
            if self.datum is not other.datum:
                raise RootDatumError("datum mismatch")
            prod = self.datum._intern_weyl(tuple(map(self.perm.__getitem__, other.perm)))
            self._products[other] = prod
        return prod

    def inverse(self) -> "FiniteWeylElement":
        if self._inv is None:
            inv = self._inv = self.datum._intern_weyl(self.inv_perm)
            inv._inv = self
        return self._inv

    def is_identity(self) -> bool:
        return self is self.datum.weyl_identity

    def act(self, x: Coweight) -> Coweight:
        return tuple([sum(map(mul, row, x)) for row in self.matrix])

    def act_root(self, root: Root) -> Root:
        """Dual action on roots (simple-root coordinates)."""
        datum = self.datum
        return datum.roots[self.perm[datum.root_index[root]]]

    def __repr__(self):
        return f"FiniteWeylElement{self.datum.finite_word(self)}"


def _coordinate_functionals(basis):
    """(den, cols) such that the coordinates of v in the basis are
    <v, cols[j]> / den, integral exactly when v lies in the lattice the basis
    spans; None when the basis is singular.  Fraction-free Gauss-Jordan on
    [basis | I] (Bareiss, Math. Comp. 22, 1968): each cleared row is divided
    by the gcd of its entries, so row i ends as [d_i e_i | r_i] with r_i / d_i,
    row i of the inverse, in lowest terms as a row; den is the lcm of the d_i."""
    n = len(basis)
    rows = [list(basis[i]) + [int(i == j) for j in range(n)] for i in range(n)]
    for col in range(n):
        piv = next((r for r in range(col, n) if rows[r][col]), None)
        if piv is None:
            return None
        rows[col], rows[piv] = rows[piv], rows[col]
        prow = rows[col]
        for r in range(n):
            if r != col and (f := rows[r][col]):
                row = [prow[col] * e - f * g for e, g in zip(rows[r], prow)]
                g = math.gcd(*row)
                rows[r] = [e // g for e in row]
    den = math.lcm(*(rows[i][i] for i in range(n)))
    return den, tuple(tuple(rows[i][n + j] * (den // rows[i][i]) for i in range(n))
                      for j in range(n))


class RootDatum:
    """A finite root system with a chosen coweight lattice.

    The roots are generated by closing the simple roots under simple
    reflections, with their coroots carried along, so no inner products are
    ever needed.  `roots` lists the positive roots, then their negatives in
    the same order, and finite Weyl elements are permutations of its indices.

    The datum owns every memo of the computations built on it, so a memo
    lives and dies with its datum and can never answer for another one:

    - the intern tables of the finite and affine Weyl elements, each element
      with its own memos;
    - for `affine_weyl`: `affine_system` (the affine simple system), `facets`
      (the facet intern table by sorted index tuple; each facet has one
      table of classes, by every element asked for, rep included, which
      only `affine_weyl.double_coset_rep` fills), and
      `bruhat_memo` by `(u, w)`;
    - for `oracle`: `generic_steps`, the generic Hecke algebra's numbering of
      the elements it meets, each with its right simple steps w -> w s_i
      (`oracle.RightSteps`);
    - for `satake`: `levis` (the Levi intern table by sorted J_M; each Levi
      keeps its W_{M,f} record per facet), and `satake_memo`, keyed by
      `(class, Levi)`, whose entries are the canonical W_{M,f}
      representatives in the image of one phi class with the number of
      cosets the walk that found them visited (which the cap bounds on a hit
      as on a miss), `((), 0)` when the closed component misses the Levi.

    Interning stores by one `dict.setdefault`, so threads that form the same
    new element at once all get the one stored first.
    """

    def __init__(self, cartan: CartanDatum, spec_string: str | None = None):
        self.cartan_datum = cartan
        self.components = cartan.components
        self.n = sum(rank for _, rank in self.components)

        a = [[0] * self.n for _ in range(self.n)]
        off = 0
        self.component_ranges = []
        for letter, rank in self.components:
            sub = cartan_matrix(letter, rank)
            for i in range(rank):
                for j in range(rank):
                    a[off + i][off + j] = sub[i][j]
            self.component_ranges.append(range(off, off + rank))
            off += rank
        self.cartan = tuple(tuple(r) for r in a)

        lattice = cartan.lattice
        self.lattice_label = lattice if lattice in ("sc", "ad") else "explicit"
        self.dim = len(lattice[0]) if self.lattice_label == "explicit" else self.n
        self.simple_coroots = tuple(
            tuple(self.cartan[i][j] for i in range(self.n)) + (0,) * (self.dim - self.n)
            for j in range(self.n))
        if lattice == "sc":
            self.x_basis = self.simple_coroots
        elif lattice == "ad":
            self.x_basis = tuple(tuple(int(i == j) for i in range(self.n))
                                 for j in range(self.n))
        else:
            self.x_basis = tuple(tuple(r) for r in lattice)
            if self.dim < self.n or len(self.x_basis) != self.dim:
                raise RootDatumError("lattice basis must be square of size >= rank")
        functionals = _coordinate_functionals(self.x_basis)
        if functionals is None:
            raise RootDatumError("lattice basis is singular")
        self.x_inverse_den, self.x_inverse_cols = functionals
        self.rho_check = (1,) * self.n + (0,) * (self.dim - self.n)
        for j, crt in enumerate(self.simple_coroots):
            if self.x_coords(crt) is None:
                raise RootDatumError(
                    f"lattice does not contain the simple coroot alpha_{j + 1}^vee")

        self.simple_roots = tuple(tuple(int(i == j) for j in range(self.n))
                                  for i in range(self.n))
        self._generate_roots()
        self._weyl_cache: dict[tuple, FiniteWeylElement] = {}
        self._affine_cache: dict = {}  # (translation, finite) -> AffineWeylElement
        self.weyl_identity = self._intern_weyl(tuple(range(len(self.roots))))
        self.simple_reflections = tuple(map(self.reflection, self.simple_roots))
        self.spec_string = spec_string or "x".join(
            f"{letter}{rank}" for letter, rank in self.components) + ":" + self.lattice_label

        self.affine_system = None
        self.facets: dict = {}
        self.bruhat_memo: dict = {}
        self.generic_steps = None  # oracle.RightSteps, made on first use
        self.levis: dict = {}
        self.satake_memo: dict = {}

    # -- construction helpers --------------------------------------------------

    def _intern_weyl(self, perm) -> FiniteWeylElement:
        el = self._weyl_cache.get(perm)
        if el is None:
            el = self._weyl_cache.setdefault(perm, FiniteWeylElement(self, perm))
        return el

    def _generate_roots(self):
        """`roots` (positive, then their negatives), `root_index`, `coroot_of`;
        a coroot x reflects to s_i(x) = x - x[i] alpha_i^vee."""
        def reflect(root_and_coroot):
            rt, crt = root_and_coroot
            for i, ci in enumerate(self.simple_coroots):
                m = self.pair(rt, ci)
                yield (tuple(rt[j] - m * (j == i) for j in range(self.n)),
                       tuple(c - crt[i] * a for c, a in zip(crt, ci)))

        pairs = dict(closure(zip(self.simple_roots, self.simple_coroots), reflect))
        pos = sorted(rt for rt in pairs if all(x >= 0 for x in rt))
        if len(pairs) != 2 * len(pos):
            raise RootDatumError("root closure is not symmetric")
        self.positive_roots = tuple(pos)
        self.roots = self.positive_roots + tuple(tuple(-x for x in rt) for rt in pos)
        self.root_index = {rt: k for k, rt in enumerate(self.roots)}
        self.coroot_of = pairs
        self.highest_roots = tuple(max((rt for rt in pos if any(rt[i] for i in rng)), key=sum)
                                   for rng in self.component_ranges)

    # -- basic arithmetic --------------------------------------------------------

    def pair(self, root: Root, coweight: Coweight) -> int:
        """<alpha, nu> for alpha in simple-root coords, nu in ambient coords: a dot
        product over the root's n coordinates, so central coordinates never pair."""
        return sum(map(mul, root, coweight))

    def coroot(self, root: Root) -> Coweight:
        return self.coroot_of[root]

    def reflection(self, root: Root) -> FiniteWeylElement:
        """Finite reflection s_alpha, for a root alpha in simple-root
        coordinates, interned by its permutation of the roots: b goes to
        b - <b, alpha^vee> alpha."""
        crt = self.coroot_of[root]

        def image(b):
            m = self.pair(b, crt)
            return self.root_index[tuple(bj - m * aj for bj, aj in zip(b, root))]
        return self._intern_weyl(tuple(map(image, self.roots)))

    def x_coords(self, coweight: Coweight):
        """Coordinates in the chosen lattice basis, or None if outside X."""
        den = self.x_inverse_den
        out = []
        for col in self.x_inverse_cols:
            c, rem = divmod(sum(map(mul, coweight, col)), den)
            if rem:
                return None
            out.append(c)
        return tuple(out)

    def coweight_from_x_coords(self, coords) -> Coweight:
        if len(coords) != self.dim:
            raise RootDatumError(f"expected {self.dim} lattice coordinates")
        return tuple([sum(map(mul, coords, col)) for col in zip(*self.x_basis)])

    def in_lattice(self, coweight: Coweight) -> bool:
        """True iff the coweight has `dim` coordinates and lies in X."""
        return len(coweight) == self.dim and self.x_coords(coweight) is not None

    def zero_coweight(self) -> Coweight:
        return (0,) * self.dim

    # -- Weyl group ----------------------------------------------------------------

    def finite_word(self, w: FiniteWeylElement) -> tuple[int, ...]:
        """Canonical reduced word (smallest left descent first), as 0-based
        simple-root indices: y = w.rho_check goes to s_i y, i the smallest
        index with <alpha_i, y> < 0, until y is dominant."""
        if w._word is None:
            word = []
            y = w.act(self.rho_check)
            while (i := next((i for i in range(self.n) if y[i] < 0), None)) is not None:
                word.append(i)
                y = self.simple_reflections[i].act(y)
            w._word = tuple(word)
        return w._word

    # -- fundamental group X/Q^vee -------------------------------------------------------

    def fundamental_group_torsion_reps(self) -> tuple[Coweight, ...]:
        """One coweight representative per torsion class of X/Q^vee.

        On each component, zero and the minuscule fundamental coweights (the
        e_i whose node has highest-root coefficient 1) represent P^vee/Q^vee
        (Bourbaki, Lie Groups and Lie Algebras, Ch. VI §2).  The torsion of
        X/Q^vee is (X meet Q^vee (x) Q)/Q^vee, inside P^vee/Q^vee, so its
        classes are the sums of one such choice per component that lie in X.
        """
        choices = [[None] + [i for i in rng if theta[i] == 1]
                   for rng, theta in zip(self.component_ranges, self.highest_roots)]
        sums = (tuple(int(i in picks) for i in range(self.dim))
                for picks in itertools.product(*choices))
        return tuple(z for z in sums if self.in_lattice(z))

    def __repr__(self):
        return f"RootDatum({self.spec_string})"


# -- presets and parsing -------------------------------------------------------------

_PRESET_CACHE: dict[str, RootDatum] = {}


def _parse_components(typ: str) -> tuple[tuple[str, int], ...]:
    comps = []
    for part in typ.replace("+", "x").split("x"):
        part = part.strip()
        if len(part) < 2 or part[0] not in VALID_RANKS or not part[1:].isdigit():
            raise RootDatumError(f"cannot parse Dynkin type {part!r}")
        comps.append((part[0], int(part[1:])))
    return tuple(comps)


def preset(spec: str) -> RootDatum:
    """Root datum for a preset string like 'A2', 'C2:sc' or 'A1:ad'.

    A bare type defaults to the simply-connected lattice.
    """
    key = spec if ":" in spec else spec + ":sc"
    if key not in _PRESET_CACHE:
        typ, _, lat = key.partition(":")
        if lat not in ("sc", "ad"):
            raise RootDatumError(f"unknown lattice suffix {lat!r}")
        _PRESET_CACHE[key] = RootDatum(CartanDatum(_parse_components(typ), lat),
                                       spec_string=key)
    return _PRESET_CACHE[key]


def from_json(doc) -> RootDatum:
    """Explicit-lattice datum from a {type, rank, lattice_basis} document."""
    if isinstance(doc, str):
        doc = json.loads(doc)
    if not isinstance(doc, dict) or not {"type", "lattice_basis"} <= doc.keys():
        raise RootDatumError("datum document must be an object with 'type' and "
                             "'lattice_basis'")
    rank = _json_int(doc["rank"]) if "rank" in doc else None
    typ = str(doc["type"])
    if rank is not None and not any(ch.isdigit() for ch in typ):
        typ = f"{typ}{rank}"
    comps = _parse_components(typ)
    if rank is not None and sum(r for _, r in comps) != rank:
        raise RootDatumError("rank field disagrees with type string")
    try:
        basis = tuple(tuple(map(_json_int, row)) for row in doc["lattice_basis"])
    except TypeError as exc:
        raise RootDatumError(f"malformed datum document: {exc}") from exc
    return RootDatum(CartanDatum(comps, basis))


def _json_int(v) -> int:
    """v itself when it is a JSON integer: not a float, string or boolean."""
    if isinstance(v, bool) or not isinstance(v, int):
        raise RootDatumError(f"malformed datum document: {v!r} is not an integer")
    return v
