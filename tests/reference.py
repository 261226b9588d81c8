"""Reference helpers that only the tests use, kept out of the library."""

from modp_hecke.affine_weyl import AffineWeylElement
from modp_hecke.oracle import GenericHeckeElement
from modp_hecke.satake import LeviDatum


def in_w_m(levi: LeviDatum, w: AffineWeylElement) -> bool:
    """Membership in W_M = X x| W0(M): the finite part of w fixes lam."""
    return w.finite.act(levi.lam) == levi.lam


def t_basis(w: AffineWeylElement) -> GenericHeckeElement:
    """The generic Hecke basis element T_w."""
    return GenericHeckeElement(w.datum, {w: 1}, 1)
