"""Finite root systems, coweight lattices and finite Weyl groups.

All arithmetic is exact.  Roots are stored as integer vectors in the basis
of simple roots; coweights as integer vectors in "ambient" coordinates,
which are fundamental-coweight coordinates on the semisimple part followed
by central-torus coordinates.  In ambient coordinates the pairing of the
i-th simple root with a coweight x is simply x[i], so everything downstream
reduces to small integer dot products.

A finite Weyl element w is read off the point w.rho_check, rho_check =
(1, ..., 1, 0, ..., 0) pairing to 1 with every simple root (it need not lie
in X): <w^-1 alpha, rho_check> = <alpha, w.rho_check> (Humphreys, Reflection
Groups and Coxeter Groups, §1.12).  No matrix is inverted; the one exact
elimination, `_coordinate_functionals`, sets up lattices.

Every memo of the package lives on the RootDatum it belongs to: finite and
affine Weyl elements are interned per datum and carry their own memos, and
the datum holds the tables keyed by more than one element.  Nothing is
cached at module level except the preset data.
The sets the package enumerates (the roots, the length balls of W, the
classes below a class, the cosets of a point count, the anti-dominant
coweights and the Satake walk) all come from one breadth-first search,
`closure`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
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


def closure(seeds, neighbours, cap: int | None = None):
    """Everything reachable from `seeds` through `neighbours(x)` (an iterable),
    found level by level.  With a `cap` it stops as soon as it has found more
    than cap elements, so a caller reads an overflow off the size."""
    limit = math.inf if cap is None else cap
    seen = set(seeds)
    frontier = list(seen)
    while frontier and len(seen) <= limit:
        nxt = []
        for x in frontier:
            for y in neighbours(x):
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
                    if len(seen) > limit:
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


@dataclass(frozen=True)
class CartanDatum:
    """Concrete presentation of a split reductive group: Dynkin components
    plus a coweight-lattice choice ('sc', 'ad', or an explicit basis)."""

    components: tuple[tuple[str, int], ...]
    lattice: object  # 'sc' | 'ad' | tuple of integer basis rows

    def __post_init__(self):
        for letter, rank in self.components:
            if letter not in VALID_RANKS or rank not in VALID_RANKS[letter]:
                raise RootDatumError(f"invalid Dynkin type {letter}{rank}")
        if self.lattice not in ("sc", "ad"):
            rows = self.lattice
            if not rows or any(len(r) != len(rows[0]) for r in rows):
                raise RootDatumError("lattice basis must be a rectangular matrix")
            if any(not isinstance(e, int) for r in rows for e in r):
                raise RootDatumError("lattice basis must have integer entries")


class FiniteWeylElement:
    """Element of the finite Weyl group, stored as its integer matrix acting
    on ambient coweight coordinates (column-vector convention).

    Elements are interned per datum by their matrix, so equality is identity
    and each carries its own lazy memos: products, root images, the positive
    roots its inverse makes negative, and its canonical word.
    The negated roots and the word are signs of pairings with w.rho_check,
    and the inverse is the product of the reversed word.  Products and root
    images multiply matrices only on a memo miss; `act` on coweights has no
    memo and multiplies every time.
    """

    __slots__ = ("datum", "matrix", "_hash", "_inv", "_products", "_root_images",
                 "_inverse_negates", "_word")

    def __init__(self, datum: "RootDatum", matrix: tuple[tuple[int, ...], ...]):
        self.datum = datum
        self.matrix = matrix
        self._hash = hash(matrix)
        self._inv = None
        self._products: dict[FiniteWeylElement, FiniteWeylElement] = {}
        self._root_images: dict[Root, Root] = {}
        self._inverse_negates = None
        self._word = None

    def __hash__(self):
        return self._hash

    def __mul__(self, other: "FiniteWeylElement") -> "FiniteWeylElement":
        prod = self._products.get(other)
        if prod is None:
            if self.datum is not other.datum:
                raise RootDatumError("datum mismatch")
            prod = self.datum._intern_weyl(_mat_mul(self.matrix, other.matrix))
            self._products[other] = prod
        return prod

    def inverse(self) -> "FiniteWeylElement":
        if self._inv is None:
            inv = self.datum.weyl_identity
            for i in self.datum.finite_word(self):
                inv = self.datum.simple_reflections[i] * inv
            self._inv, inv._inv = inv, self
        return self._inv

    def is_identity(self) -> bool:
        return self is self.datum.weyl_identity

    def act(self, x: Coweight) -> Coweight:
        return tuple([sum(map(mul, row, x)) for row in self.matrix])

    def act_root(self, root: Root) -> Root:
        """Dual action on roots (simple-root coordinates)."""
        img = self._root_images.get(root)
        if img is None:
            n = self.datum.n
            minv = self.inverse().matrix
            img = tuple(sum(root[i] * minv[i][j] for i in range(n)) for j in range(n))
            self._root_images[root] = img
        return img

    def inverse_negates(self) -> tuple[bool, ...]:
        """One flag per positive root of the datum, in its order: True iff the
        inverse of this element sends that root to a negative root."""
        if self._inverse_negates is None:
            datum = self.datum
            y = self.act(datum.rho_check)
            self._inverse_negates = tuple(datum.pair(rt, y) < 0
                                          for rt in datum.positive_roots)
        return self._inverse_negates

    def __repr__(self):
        return f"FiniteWeylElement{self.datum.finite_word(self)}"


def _mat_mul(a, b):
    n = len(a)
    return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n))
                 for i in range(n))


def _coordinate_functionals(basis):
    """(den, cols) such that the coordinates of v in the basis are
    <v, cols[j]> / den, integral exactly when v lies in the lattice the basis
    spans (a v longer than the basis is paired on its first entries); None
    when the basis is singular.  Gauss-Jordan over the rationals."""
    n = len(basis)
    aug = [[Fraction(basis[i][j]) for j in range(n)] + [Fraction(i == j) for j in range(n)]
           for i in range(n)]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if piv is None:
            return None
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = Fraction(1) / aug[col][col]
        aug[col] = [e * inv for e in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [e - f * g for e, g in zip(aug[r], aug[col])]
    inv = [row[n:] for row in aug]
    den = math.lcm(*(v.denominator for row in inv for v in row))
    return den, tuple(tuple(int(row[j] * den) for row in inv) for j in range(n))


class RootDatum:
    """A finite root system with a chosen coweight lattice.

    Positive roots are generated by closing the simple roots under simple
    reflections; coroots are carried along in parallel so no inner products
    are ever needed.

    The datum owns every memo of the computations built on it, so a memo
    lives and dies with its datum and can never answer for another one:

    - the intern tables of the finite and affine Weyl elements, each element
      with its own memos;
    - for `affine_weyl`: `affine_system` (the affine simple system), `facets`
      (the facet intern table by sorted index tuple; each facet interns its
      classes and keeps the class of each element asked for), and
      `bruhat_memo` by `(u, w)`;
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

        if cartan.lattice == "sc":
            self.dim = self.n
            basis = [tuple(self.cartan[i][j] for i in range(self.n))
                     for j in range(self.n)]  # simple coroots
        elif cartan.lattice == "ad":
            self.dim = self.n
            basis = [tuple(int(i == j) for i in range(self.n)) for j in range(self.n)]
        else:
            rows = tuple(tuple(r) for r in cartan.lattice)
            self.dim = len(rows[0])
            if self.dim < self.n or len(rows) != self.dim:
                raise RootDatumError("lattice basis must be square of size >= rank")
            basis = list(rows)
        self.x_basis = tuple(basis)
        functionals = _coordinate_functionals(self.x_basis)
        if functionals is None:
            raise RootDatumError("lattice basis is singular")
        self.x_inverse_den, self.x_inverse_cols = functionals
        self.lattice_label = cartan.lattice if cartan.lattice in ("sc", "ad") else "explicit"
        self.rho_check = (1,) * self.n + (0,) * (self.dim - self.n)

        self.simple_coroots = tuple(
            tuple(self.cartan[i][j] for i in range(self.n)) + (0,) * (self.dim - self.n)
            for j in range(self.n))
        for j, crt in enumerate(self.simple_coroots):
            if self.x_coords(crt) is None:
                raise RootDatumError(
                    f"lattice does not contain the simple coroot alpha_{j + 1}^vee")
        self.q_inverse_den, self.q_inverse_cols = _coordinate_functionals(
            [crt[:self.n] for crt in self.simple_coroots])

        self._weyl_cache: dict[tuple, FiniteWeylElement] = {}
        self._affine_cache: dict = {}  # (translation, finite) -> AffineWeylElement
        ident = tuple(tuple(int(i == j) for j in range(self.dim)) for i in range(self.dim))
        self.weyl_identity = self._intern_weyl(ident)
        self.simple_reflections = tuple(self._simple_reflection(i) for i in range(self.n))

        self._generate_roots()
        self.spec_string = spec_string or self._default_spec_string()

        self.affine_system = None
        self.facets: dict = {}
        self.bruhat_memo: dict = {}
        self.levis: dict = {}
        self.satake_memo: dict = {}

    # -- construction helpers --------------------------------------------------

    def _intern_weyl(self, matrix) -> FiniteWeylElement:
        el = self._weyl_cache.get(matrix)
        if el is None:
            el = self._weyl_cache.setdefault(matrix, FiniteWeylElement(self, matrix))
        return el

    def _simple_reflection(self, i: int) -> FiniteWeylElement:
        crt = self.simple_coroots[i]
        rows = []
        for r in range(self.dim):
            row = [int(r == c) for c in range(self.dim)]
            row[i] -= crt[r]  # s_i(x) = x - x[i] * alpha_i^vee
            rows.append(tuple(row))
        return self._intern_weyl(tuple(rows))

    def _generate_roots(self):
        def reflect(pair):
            rt, crt = pair
            for i in range(self.n):
                m = sum(rt[k] * self.cartan[k][i] for k in range(self.n))
                yield (tuple(rt[j] - m * (j == i) for j in range(self.n)),
                       self.simple_reflections[i].act(crt))

        simple_roots = [tuple(int(i == j) for j in range(self.n)) for i in range(self.n)]
        pairs = dict(closure(zip(simple_roots, self.simple_coroots), reflect))
        pos = sorted(rt for rt in pairs if all(x >= 0 for x in rt))
        if len(pairs) != 2 * len(pos):
            raise RootDatumError("root closure is not symmetric")
        self.positive_roots = tuple(pos)
        self.positive_coroots = tuple(pairs[rt] for rt in pos)
        self.coroot_of = dict(zip(self.positive_roots, self.positive_coroots))

        self.highest_roots = []
        for rng in self.component_ranges:
            block = [rt for rt in pos if any(rt[i] for i in rng)]
            theta = max(block, key=lambda rt: sum(rt))
            self.highest_roots.append((theta, pairs[theta]))
        self.highest_roots = tuple(self.highest_roots)

    def _default_spec_string(self):
        typ = "x".join(f"{letter}{rank}" for letter, rank in self.components)
        return f"{typ}:{self.lattice_label}"

    # -- basic arithmetic --------------------------------------------------------

    def pair(self, root: Root, coweight: Coweight) -> int:
        """<alpha, nu> for alpha in simple-root coords, nu in ambient coords."""
        return sum(root[i] * coweight[i] for i in range(self.n))

    def coroot(self, root: Root) -> Coweight:
        if root in self.coroot_of:
            return self.coroot_of[root]
        neg = tuple(-x for x in root)
        return tuple(-x for x in self.coroot_of[neg])

    def reflection(self, root: Root) -> FiniteWeylElement:
        """Finite reflection s_alpha: x -> x - <alpha, x> alpha^vee, interned
        by its matrix."""
        crt = self.coroot(root)
        return self._intern_weyl(tuple(
            tuple(int(r == c) - crt[r] * (root[c] if c < self.n else 0)
                  for c in range(self.dim)) for r in range(self.dim)))

    def x_coords(self, coweight: Coweight):
        """Coordinates in the chosen lattice basis, or None if outside X."""
        den = self.x_inverse_den
        out = []
        for col in self.x_inverse_cols:
            c, rem = divmod(sum(v * a for v, a in zip(coweight, col)), den)
            if rem:
                return None
            out.append(c)
        return tuple(out)

    def in_coroot_lattice(self, coweight: Coweight) -> bool:
        """True iff the coweight lies in Q^vee, the span of the simple
        coroots: its central coordinates are zero, and its semisimple part has
        integral simple-coroot coordinates."""
        den = self.q_inverse_den
        return not any(coweight[self.n:]) and all(
            sum(map(mul, coweight, col)) % den == 0 for col in self.q_inverse_cols)

    def coweight_from_x_coords(self, coords) -> Coweight:
        if len(coords) != self.dim:
            raise RootDatumError(f"expected {self.dim} lattice coordinates")
        return tuple(sum(c * b[i] for c, b in zip(coords, self.x_basis))
                     for i in range(self.dim))

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
                   for rng, (theta, _) in zip(self.component_ranges, self.highest_roots)]
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
