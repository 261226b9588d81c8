"""Combinatorial mod p parahoric Hecke algebras.

Convolution of phi basis elements through Demazure products, Satake
transforms to Levi subgroups through closed attractor components, and the
special-parahoric identification with the anti-dominant monoid algebra,
together with independent brute-force oracles for every layer.
"""

from .root_datum import (CartanDatum, FiniteWeylElement, RootDatum,
                         RootDatumError, from_json, preset)
from .affine_weyl import (AffineWeylElement, CapExceeded, DoubleCosetIndex,
                          Facet, bruhat_leq, demazure_product,
                          double_coset_rep, element_to_string,
                          enumerate_lower_interval, facet, hyperspecial,
                          identity, iwahori, length,
                          min_coset_rep, omega_conjugate, parse_element,
                          reduced_word, translation)
from .hecke import (ConvolutionWitness, HeckeElement, HeckeError, convolve,
                    convolve_phi_classes, phi_basis_element,
                    point_count_polynomial)
from .satake import (LeviDatum, LeviHeckeElement, MonoidAlgebraElement,
                     SatakeError, closed_attractor_component,
                     component_has_levi_point, component_of,
                     enumerate_antidominant, enumerate_closed_chains,
                     levi_datum, minimal_levi, phi_c_w, satake_phi)
from .satake import satake as satake_transform
from . import oracle

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
