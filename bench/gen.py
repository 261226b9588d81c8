"""Seeded inputs for the benchmark workloads.

Everything here is drawn from a `random.Random` private to one workload and
one seed, and comes out as element strings in the README grammar (`e`,
`s<i>`, `t[..]`, `w[..]`, `*`) plus plain integers.  This module never
imports `modp_hecke`: the library only sees the strings.

Input lengths are chosen for run time only.  Nothing here filters or clamps
inputs to step around known defects.

Each generator is prefix-stable: asking for more operations appends to the
list without changing the operations before them, so the first operations
of a seed never depend on run length.
"""

from __future__ import annotations

import itertools
import random

DEFAULT_SEED = 1
WORKLOADS = ("convolve", "satake_sweep", "hecke_mixed", "oracle_check")
PRIMES = (2, 3, 5, 7)

RANKS = {"A1": 1, "A2": 2, "C2": 2, "G2": 2, "A3": 3}

# convolve: ordered pairs of classes from words of length <= 12.
CONVOLVE_GROUPS = tuple((spec, facet) for spec in ("A2", "C2", "G2")
                        for facet in ("iwahori", "hyperspecial"))
CONVOLVE_POOL = 150
CONVOLVE_WORD = 12

# satake_sweep: (spec, length cap, box radius, Levis) for the hyperspecial
# translation classes.  The box [-radius, 0]^rank holds the anti-dominant
# coweight of every class up to the cap (bench/selftest.py checks this).
SATAKE_SPECIAL = (
    ("A2", 18, 6, ((),)),
    ("C2", 18, 6, ((),)),
    ("G2", 18, 6, ((),)),
    ("A3", 8, 2, ((), (0,), (1,))),
)
SATAKE_IWAHORI = ("A2", "C2", "G2")
SATAKE_IWAHORI_LENGTH = 7

# hecke_mixed: (spec, length cap, box radius) of the anti-dominant pool.
MIXED_GROUPS = (("A2", 6, 2), ("C2", 6, 2))
MIXED_BLOCK = 20

# oracle_check: every Iwahori element of length <= 5, and the cell mix.
ORACLE_GROUPS = ("A1", "A2", "C2")
ORACLE_WORD = 5
ORACLE_BLOCK = (("convolution", 14), ("bruhat", 4), ("length", 2))  # cells per block of 20


def _rng(workload: str, seed: int) -> random.Random:
    # A str seed is hashed with SHA-512, so the stream does not depend on
    # PYTHONHASHSEED.
    return random.Random(f"{workload}:{seed}")


def word(rng: random.Random, spec: str, max_len: int) -> str:
    """A random word of length 0..max_len in the affine simple reflections
    s0..s_r of a single-component preset, never the same letter twice in a
    row (a repeated letter only cancels)."""
    n = rng.randint(0, max_len)
    if n == 0:
        return "e"
    letters = [rng.randint(0, RANKS[spec])]
    while len(letters) < n:
        x = rng.randint(0, RANKS[spec])
        if x != letters[-1]:
            letters.append(x)
    return "w[" + ",".join(map(str, letters)) + "]"


def _finite_letters(rng: random.Random, spec: str) -> list:
    return [f"s{rng.randint(1, RANKS[spec])}" for _ in range(rng.randint(0, 2))]


def translation_strings(rng: random.Random, spec: str, radius: int) -> list:
    """One string per point c of the box [-radius, 0]^rank: t[c] between
    random letters of the finite Weyl group, in a seeded order.  At the
    hyperspecial facet the letters do not change the class."""
    out = []
    for c in itertools.product(range(-radius, 1), repeat=RANKS[spec]):
        atoms = (_finite_letters(rng, spec) + ["t[" + ",".join(map(str, c)) + "]"]
                 + _finite_letters(rng, spec))
        out.append("*".join(atoms))
    rng.shuffle(out)
    return out


def proper_levis(spec: str) -> tuple:
    """Every proper subset of the finite simple roots (0-based), the
    minimal Levi first."""
    r = RANKS[spec]
    return tuple(c for k in range(r) for c in itertools.combinations(range(r), k))


def convolve(seed: int, n_ops: int) -> dict:
    rng = _rng("convolve", seed)
    pools = [[word(rng, spec, CONVOLVE_WORD) for _ in range(CONVOLVE_POOL)]
             for spec, _ in CONVOLVE_GROUPS]
    ops = [(rng.randrange(len(CONVOLVE_GROUPS)), rng.randrange(CONVOLVE_POOL),
            rng.randrange(CONVOLVE_POOL)) for _ in range(n_ops)]
    return {"pools": pools, "ops": ops}


def satake_sweep(seed: int) -> dict:
    """Candidates for every hyperspecial translation class up to its cap and
    every Iwahori class of length SATAKE_IWAHORI_LENGTH (all words of that
    length with no letter twice in a row), each with its Levis.  The child
    keeps the first occurrence of each (class, Levi, facet) triple, so no
    triple repeats in a run, and runs them in a fixed order.  The set of
    triples is the same for every seed, which keeps the sweep steady; the
    seed draws the strings and the primes."""
    rng = _rng("satake_sweep", seed)
    special = []
    for spec, _, radius, levis in SATAKE_SPECIAL:
        for text in translation_strings(rng, spec, radius):
            for j_m in levis:
                special.append((spec, text, j_m, rng.choice(PRIMES)))
    iwahori = []
    for spec in SATAKE_IWAHORI:
        letters = range(RANKS[spec] + 1)
        for w in itertools.product(letters, repeat=SATAKE_IWAHORI_LENGTH):
            if all(a != b for a, b in zip(w, w[1:])):
                text = "w[" + ",".join(map(str, w)) + "]"
                for j_m in proper_levis(spec):
                    iwahori.append((spec, text, j_m, rng.choice(PRIMES)))
    return {"special": special, "iwahori": iwahori}


def _sparse_terms(rng: random.Random, p: int) -> tuple:
    """1-3 terms (pool draw, nonzero coefficient mod p) and a basis."""
    terms = [(rng.getrandbits(30), rng.randrange(1, p)) for _ in range(rng.randint(1, 3))]
    return terms, rng.choice(("indicator", "phi"))


def hecke_mixed(seed: int, n_ops: int) -> dict:
    """The operations (group, prime, terms, coefficients, bases) come from a
    fixed design, in blocks of MIXED_BLOCK that the seed shuffles; the seed
    also draws the strings of the pool.  The cost of a step hinges on which
    terms cancel mod p, so with seed-drawn steps a 100-step run could not be
    steady."""
    design = random.Random("hecke_mixed:design")
    rng = _rng("hecke_mixed", seed)
    pools = [translation_strings(rng, spec, radius) for spec, _, radius in MIXED_GROUPS]
    ops = []
    while len(ops) < n_ops:
        block = []
        for _ in range(MIXED_BLOCK):
            group = design.randrange(len(MIXED_GROUPS))
            p = design.choice(PRIMES[:3])
            block.append((group, p, _sparse_terms(design, p), _sparse_terms(design, p)))
        rng.shuffle(block)
        ops += block
    return {"pools": pools, "ops": ops}


def short_words(spec: str, max_len: int) -> list:
    """Every word of length <= max_len with no letter twice in a row, in a
    fixed order; together they name every element of length <= max_len."""
    letters = range(RANKS[spec] + 1)
    out = ["e"]
    for n in range(1, max_len + 1):
        out += ["w[" + ",".join(map(str, w)) + "]"
                for w in itertools.product(letters, repeat=n)
                if all(a != b for a, b in zip(w, w[1:]))]
    return out


def oracle_check(seed: int, n_ops: int) -> dict:
    """Pools are whole length balls, and the cells come from a fixed design
    in blocks of 20 with the same mix of kinds; the seed shuffles each block
    and draws the primes.  The latency distribution is steep around its
    median, so seed-drawn pairs moved latency_p50_ms by 20 % between seeds."""
    design = random.Random("oracle_check:design")
    rng = _rng("oracle_check", seed)
    pools = [short_words(spec, ORACLE_WORD) for spec in ORACLE_GROUPS]
    ops = []
    while len(ops) < n_ops:
        block = []
        for kind, count in ORACLE_BLOCK:
            for _ in range(count):
                group = design.randrange(len(ORACLE_GROUPS))
                size = len(pools[group])
                block.append((kind, group, design.randrange(size), design.randrange(size)))
        rng.shuffle(block)
        ops += [cell + (rng.choice(PRIMES[:3]),) for cell in block]
    return {"pools": pools, "ops": ops}
