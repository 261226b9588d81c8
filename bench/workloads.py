"""The four workloads: set-up, one operation, and the correctness gate.

A workload object is built from a seed and an operation count.  Building it
is the set-up the benchmark times as part of `setup_s`: presets, facets,
Levis, and parsing every generated string into a class.  `run(i)` is the
timed operation.  `check(results)` is the gate that runs after the timed
loop on {operation index: result} and returns {operation index: reason} for
every operation whose result is wrong.
"""

from __future__ import annotations

import json
import random

import gen
from modp_hecke import affine_weyl as aw
from modp_hecke import hecke as hk
from modp_hecke import oracle as orc
from modp_hecke import satake as sat
from modp_hecke.root_datum import preset

CHECK_SAMPLE = 40  # operations re-checked by a brute-force oracle after the loop


def _facet(spec: str, kind: str):
    d = preset(spec)
    return aw.iwahori(d) if kind == "iwahori" else aw.hyperspecial(d)


def _classes(f, texts):
    return [aw.double_coset_rep(aw.parse_element(f.datum, t), f) for t in texts]


def _short_classes(f, texts, cap):
    """Distinct classes of the texts of length <= cap."""
    return {c for c in _classes(f, texts) if c.length <= cap}


def _label(f) -> str:
    return f"{f.datum.spec_string}|{','.join(map(str, f.indices))}"


def _gate(bad: dict, i: int, reason: str, passed):
    """Record operation i as failed unless passed() returns true; an
    exception raised by the check fails it too, under its type."""
    try:
        ok = passed()
    except Exception as exc:
        bad[i] = f"{reason}:{type(exc).__name__}"
        return
    if not ok:
        bad[i] = reason


def _sample(seed, name, indices):
    rng = random.Random(f"{name}-check:{seed}")
    return rng.sample(indices, min(CHECK_SAMPLE, len(indices)))


class Convolve:
    """`convolve_phi_classes` on seeded ordered pairs of classes."""

    def __init__(self, seed: int, n_ops: int):
        self.seed = seed
        inputs = gen.convolve(seed, n_ops)
        groups = [_classes(_facet(spec, kind), pool)
                  for (spec, kind), pool in zip(gen.CONVOLVE_GROUPS, inputs["pools"])]
        self.ops = [(groups[g][i], groups[g][j]) for g, i, j in inputs["ops"]]

    def run(self, i):
        return hk.convolve_phi_classes(*self.ops[i])

    def canonical(self, i, result) -> str:
        _, witness = result
        return f"{_label(self.ops[i][0].facet)}|{witness.w1}|{witness.w2}|{witness.result}"

    def check(self, results: dict) -> dict:
        bad = {}
        for i, (out, witness) in results.items():
            # replay() asserts that the fold and the result strings match.
            _gate(bad, i, "replay", lambda: witness.replay() == out)
        short = [i for i in results
                 if self.ops[i][0].facet.is_iwahori
                 and max(self.ops[i][0].length, self.ops[i][1].length) <= 4]
        rng = random.Random(f"convolve-prime:{self.seed}")
        for i in _sample(self.seed, "convolve", short):
            w1, w2 = self.ops[i]
            p = rng.choice(gen.PRIMES[:3])
            _gate(bad, i, "generic-oracle", lambda: orc.oracle_convolve_phi(w1, w2, p)
                  == hk.phi_basis_element(results[i][0], p))
        return bad


class SatakeSweep:
    """`satake_phi` on (class, Levi, facet) triples that never repeat: every
    hyperspecial translation class up to the length caps, spread evenly
    through every Iwahori class of one length paired with every proper
    Levi."""

    def __init__(self, seed: int, n_ops: int):
        self.seed = seed
        inputs = gen.satake_sweep(seed)
        self._levis = {}
        caps = {spec: cap for spec, cap, _, _ in gen.SATAKE_SPECIAL}
        special = self._triples(inputs["special"], "hyperspecial",
                                lambda spec, n: n <= caps[spec])
        iwahori = self._triples(inputs["iwahori"], "iwahori",
                                lambda spec, n: n == gen.SATAKE_IWAHORI_LENGTH)
        # A fixed order, smallest classes first: memo reuse between triples
        # of one datum depends on the order, and a seeded order moved the
        # median latency by up to 2x between seeds.  The heavy hyperspecial
        # triples are spread evenly, so that a shorter list (a smaller
        # --seconds) keeps the mix.
        special.sort(key=lambda t: (t[0].length, t[2].datum.spec_string,
                                    aw.element_sort_key(t[0].rep), t[1].j_m))
        iwahori.sort(key=lambda t: (t[2].datum.spec_string, aw.element_sort_key(t[0].rep),
                                    t[1].j_m))
        keyed = ([((k + 0.5) / len(special), t) for k, t in enumerate(special)]
                 + [((k + 0.5) / len(iwahori), t) for k, t in enumerate(iwahori)])
        keyed.sort(key=lambda kt: kt[0])
        self.ops = [t for _, t in keyed][:n_ops]

    def _levi(self, spec, j_m):
        key = (spec, j_m)
        if key not in self._levis:
            self._levis[key] = sat.levi_datum(preset(spec), j_m)
        return self._levis[key]

    def _triples(self, items, kind, keep_length):
        parsed, seen, out = {}, set(), []
        for spec, text, j_m, p in items:
            f = _facet(spec, kind)
            if (spec, text) not in parsed:
                parsed[spec, text] = aw.double_coset_rep(aw.parse_element(f.datum, text), f)
            idx = parsed[spec, text]
            levi = self._levi(spec, j_m)
            if keep_length(spec, idx.length) and (idx, levi) not in seen:
                seen.add((idx, levi))
                out.append((idx, levi, f, p))
        return out

    def run(self, i):
        idx, levi, f, p = self.ops[i]
        return sat.satake_phi(idx, levi, f, p)

    def canonical(self, i, result) -> str:
        idx, levi, f, _ = self.ops[i]
        return (f"{_label(f)}|{','.join(map(str, levi.j_m))}|{aw.element_to_string(idx.rep)}|"
                + json.dumps(result.to_json(), sort_keys=True))

    def check(self, results: dict) -> dict:
        bad, others = {}, []
        for i, image in results.items():
            idx, levi, f, p = self.ops[i]
            if f.is_special() and levi.is_minimal:
                _gate(bad, i, "special-fast-path",
                      lambda: image.to_monoid() == sat.special_satake_fast(idx, p))
            else:
                others.append(i)
        for i in _sample(self.seed, "satake_sweep", others):
            idx, levi, f, _ = self.ops[i]
            _gate(bad, i, "closed-chains", lambda: sat.enumerate_closed_chains(idx, levi, f)
                  == {sat.closed_attractor_component(idx, levi, f)})
        return bad


class HeckeMixed:
    """One step of the homomorphism check: convolve two sparse elements,
    transform both factors and the product, compare monoid products."""

    def __init__(self, seed: int, n_ops: int):
        inputs = gen.hecke_mixed(seed, n_ops)
        self.groups = []
        for (spec, cap, _), pool in zip(gen.MIXED_GROUPS, inputs["pools"]):
            f = _facet(spec, "hyperspecial")
            # Sorted, so that the design's pool draws name the same classes
            # whatever order the seed parsed them in.
            classes = sorted(_short_classes(f, pool, cap),
                             key=lambda c: aw.element_sort_key(c.rep))
            self.groups.append((f, sat.minimal_levi(f.datum), classes))
        self.ops = [(g, self._element(g, p, a), self._element(g, p, b))
                    for g, p, a, b in inputs["ops"]]

    def _element(self, g, p, spec):
        terms, basis = spec
        f, _, classes = self.groups[g]
        coeffs = {}
        for r, c in terms:
            idx = classes[r % len(classes)]
            coeffs[idx] = coeffs.get(idx, 0) + c
        return hk.HeckeElement(f, p, basis, coeffs)

    def run(self, i):
        g, a, b = self.ops[i]
        levi = self.groups[g][1]
        prod = hk.convolve(a, b)
        sa = sat.satake(a, levi).to_monoid()
        sb = sat.satake(b, levi).to_monoid()
        sp = sat.satake(prod, levi).to_monoid()
        return prod, sp, sp == sa * sb

    def canonical(self, i, result) -> str:
        prod, sp, _ = result
        return f"{_label(prod.facet)}|{prod.prime}|{prod!r}|{sp!r}"

    def check(self, results: dict) -> dict:
        return {i: "homomorphism" for i, (_, _, equal) in results.items() if not equal}


class OracleCheck:
    """One cell of the cross-validation matrix: the q=0 generic product, a
    Bruhat pair or a length, each against its brute-force oracle."""

    def __init__(self, seed: int, n_ops: int):
        inputs = gen.oracle_check(seed, n_ops)
        self.groups = [_classes(_facet(spec, "iwahori"), pool)
                       for spec, pool in zip(gen.ORACLE_GROUPS, inputs["pools"])]
        self.ops = [(kind, self.groups[g][i], self.groups[g][j], p)
                    for kind, g, i, j, p in inputs["ops"]]

    def run(self, i):
        kind, w1, w2, p = self.ops[i]
        if kind == "convolution":
            got, _ = hk.convolve_phi_classes(w1, w2)
            return got, orc.oracle_convolve_phi(w1, w2, p) == hk.phi_basis_element(got, p)
        if kind == "bruhat":
            got = aw.bruhat_leq(w1.rep, w2.rep)
            return got, got == orc.brute_bruhat(w1.rep, w2.rep)
        got = aw.length(w2.rep)
        return got, got == orc.brute_length(w2.rep)

    def canonical(self, i, result) -> str:
        kind, w1, w2, p = self.ops[i]
        got = aw.element_to_string(result[0].rep) if kind == "convolution" else result[0]
        return (f"{kind}|{_label(w1.facet)}|{aw.element_to_string(w1.rep)}|"
                f"{aw.element_to_string(w2.rep)}|{p}|{got}")

    def check(self, results: dict) -> dict:
        return {i: "oracle" for i, (_, equal) in results.items() if not equal}


WORKLOADS = {"convolve": Convolve, "satake_sweep": SatakeSweep,
             "hecke_mixed": HeckeMixed, "oracle_check": OracleCheck}
