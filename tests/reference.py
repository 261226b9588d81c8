"""Reference helpers that only the tests use, kept out of the library."""

from functools import cache

from modp_hecke import affine_weyl as aw
from modp_hecke.affine_weyl import AffineWeylElement, DoubleCosetIndex, Facet
from modp_hecke.oracle import GenericHeckeElement
from modp_hecke.root_datum import RootDatumError, closure
from modp_hecke.satake import LeviDatum


def in_w_m(levi: LeviDatum, w: AffineWeylElement) -> bool:
    """Membership in W_M = X x| W0(M): the finite part of w fixes lam."""
    return w.finite.act(levi.lam) == levi.lam


def t_basis(w: AffineWeylElement) -> GenericHeckeElement:
    """The generic Hecke basis element T_w."""
    return GenericHeckeElement(w.datum, {w: 1}, 1)


@cache
def wf_elements(f: Facet) -> tuple:
    """W_f, sorted by `element_sort_key`, by closure under the facet's generators."""
    seen = closure([aw.identity(f.datum)], lambda w: (w * g for g in f.gens))
    return tuple(sorted(seen, key=aw.element_sort_key))


def brute_double_coset_rep(w: AffineWeylElement, f: Facet) -> DoubleCosetIndex:
    """The representative _f w^f by a sweep of W_f: the unique longest element
    among the minimal coset representatives {(v w)^f : v in W_f}."""
    candidates = {aw.min_coset_rep(v * w, f) for v in wf_elements(f)}
    best = max(candidates, key=aw.length)
    ties = [c for c in candidates if aw.length(c) == aw.length(best)]
    if len(ties) != 1:
        raise RootDatumError("double coset has no unique maximal min-rep")
    return DoubleCosetIndex(f, best)
