"""Command-line front end.

Subcommands mirror the library layers: `weyl` for word-level computations,
`hecke` for algebra products and point counts, `satake` for transforms,
and `oracle check` for the cross-validation matrix.

Exit codes: 0 success, 2 parse error, 3 cap exceeded, 4 precondition
violation, 5 I/O failure.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import affine_weyl as aw
from . import oracle as oracle_mod
from . import root_datum as rd
from . import satake as sat
from .affine_weyl import CapExceeded, element_to_string, parse_element, word_form
from .hecke import (HeckeError, convolve_phi_classes, phi_basis_element,
                    point_count_polynomial, poly_string)
from .root_datum import RootDatumError
from .satake import SatakeError

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_CAP = 3
EXIT_PRECONDITION = 4
EXIT_IO = 5


def _parse_indices(text: str) -> tuple:
    text = text.strip()
    if not text:
        return ()
    return tuple(int(v) for v in text.split(","))


def _levi_root_indices(datum, text: str) -> tuple:
    """--levi uses the same index space as --facet (affine simple system);
    the indices must name finite nodes, translated here to root indices."""
    sys = aw.simple_system(datum)
    out = []
    for i in _parse_indices(text or ""):
        root_index = sys.finite_root_index(i) if i in sys.simple_roots else None
        if root_index is None:
            raise SatakeError(f"--levi index {i} is not a finite simple node")
        out.append(root_index)
    return tuple(out)


def _load_datum(spec: str):
    if spec.endswith(".json") or spec.startswith("{"):
        doc = spec if spec.startswith("{") else open(spec).read()
        return rd.from_json(doc)
    return rd.preset(spec)


def _emit(args, payload):
    if not getattr(args, "json", False) and isinstance(payload, dict) and "text" in payload:
        print(payload["text"])
    else:
        print(json.dumps(payload, sort_keys=True))


# -- weyl ------------------------------------------------------------------------


def cmd_weyl(args) -> int:
    datum = _load_datum(args.datum)
    if args.weyl_cmd == "demazure":
        word = _parse_indices(args.word)
        result = aw.demazure_product(datum, word)
        _emit(args, {"text": word_form(result), "element": element_to_string(result),
                     "word_form": word_form(result), "length": aw.length(result)})
    elif args.weyl_cmd == "length":
        w = parse_element(datum, args.elt)
        _emit(args, {"text": str(aw.length(w)), "length": aw.length(w),
                     "element": element_to_string(w)})
    elif args.weyl_cmd == "reduce":
        w = parse_element(datum, args.elt)
        word, tau = aw.reduced_word(w)
        _emit(args, {"text": word_form(w), "word": list(word),
                     "omega": element_to_string(tau),
                     "element": element_to_string(w)})
    elif args.weyl_cmd == "leq":
        u = parse_element(datum, args.u)
        w = parse_element(datum, args.w)
        val = aw.bruhat_leq(u, w)
        _emit(args, {"text": "true" if val else "false", "leq": val})
    return EXIT_OK


# -- hecke -----------------------------------------------------------------------


def cmd_hecke(args) -> int:
    datum = _load_datum(args.datum)
    f = aw.facet(datum, _parse_indices(args.facet))
    if args.hecke_cmd == "multiply":
        w1 = aw.double_coset_rep(parse_element(datum, args.w1), f)
        w2 = aw.double_coset_rep(parse_element(datum, args.w2), f)
        prod, witness = convolve_phi_classes(w1, w2)
        result = phi_basis_element(prod, args.p)
        payload = {"result": result.to_json(),
                   "indicator": result.convert("indicator", args.cap).to_json()}
        if args.witness:
            payload["witness"] = witness.to_json()
        _emit(args, payload)
    elif args.hecke_cmd == "basis":
        w = aw.double_coset_rep(parse_element(datum, args.w), f)
        el = phi_basis_element(w, args.p)
        out = el.convert(args.to, args.cap)
        _emit(args, out.to_json())
    elif args.hecke_cmd == "pointcount":
        w = aw.double_coset_rep(parse_element(datum, args.w), f)
        coeffs = point_count_polynomial(w, args.cap)
        _emit(args, {"text": poly_string(coeffs), "coefficients": list(coeffs),
                     "dimension": w.length})
    return EXIT_OK


# -- satake -----------------------------------------------------------------------


def cmd_satake(args) -> int:
    datum = _load_datum(args.datum)
    f = aw.facet(datum, _parse_indices(args.facet))
    if args.list_lambda_minus:
        rows = []
        for z in sat.enumerate_antidominant(datum, args.cap):
            rows.append({"coweight": list(datum.x_coords(z)),
                         "length": aw.length(aw.translation(datum, z))})
        text = "\n".join(f"t{r['coweight']}  ell={r['length']}" for r in rows)
        _emit(args, {"text": text, "lambda_minus": rows})
        return EXIT_OK
    levi = sat.levi_datum(datum, _levi_root_indices(datum, args.levi))
    if args.special:
        if not f.is_special():
            raise SatakeError("--special requires a special facet")
        if not levi.is_minimal:
            raise SatakeError("--special requires the minimal Levi")
    if args.w is None:
        raise ValueError("satake needs --w unless --list-lambda-minus is given")
    w = aw.double_coset_rep(parse_element(datum, args.w), f)
    label = sat.closed_attractor_component(w, levi, f)
    has_point = sat.component_has_levi_point(label)
    if args.special:
        image = sat.special_satake_fast(w, args.p)
        terms = [{"z": "t[" + ",".join(map(str, datum.x_coords(z))) + "]", "coeff": c}
                 for z, c in sorted(image.coeffs.items())]
    else:
        out = sat.satake_phi(w, levi, f, args.p)
        terms = [t for t in out.to_json()["terms"]]
    _emit(args, {"closed_component": element_to_string(label.rep),
                 "has_levi_point": has_point, "image": terms})
    return EXIT_OK


# -- oracle -----------------------------------------------------------------------


def cmd_oracle(args) -> int:
    rows = oracle_mod.run_checks(specs=tuple(args.datum or ("A1", "A2")),
                                 conv_cap=args.conv_cap,
                                 bruhat_cap=args.bruhat_cap,
                                 length_cap=args.length_cap)
    ok = all(r["ok"] for _, r in rows)
    for name, r in rows:
        status = "pass" if r["ok"] else "FAIL"
        print(f"{r['datum']:>8}  {name:<12} {status}  {json.dumps(r, sort_keys=True)}")
    print("oracle check:", "all pass" if ok else "FAILURES")
    return EXIT_OK if ok else 1


# -- argument parsing ----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="modp-hecke",
                                description="mod p parahoric Hecke algebra computations")
    p.add_argument("--config", help="JSON config file mirroring the flags")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    sub = p.add_subparsers(dest="cmd", required=True)

    w = sub.add_parser("weyl", help="affine Weyl group computations")
    wsub = w.add_subparsers(dest="weyl_cmd", required=True)
    for name in ("reduce", "length"):
        q = wsub.add_parser(name)
        q.add_argument("datum")
        q.add_argument("--elt", required=True)
        q.add_argument("--json", action="store_true")
    q = wsub.add_parser("leq")
    q.add_argument("datum")
    q.add_argument("--u", required=True)
    q.add_argument("--w", required=True)
    q.add_argument("--json", action="store_true")
    q = wsub.add_parser("demazure")
    q.add_argument("datum")
    q.add_argument("--word", required=True, help="comma-separated simple indices")
    q.add_argument("--json", action="store_true")

    h = sub.add_parser("hecke", help="Hecke algebra products and bases")
    hsub = h.add_subparsers(dest="hecke_cmd", required=True)
    q = hsub.add_parser("multiply")
    q.add_argument("datum")
    q.add_argument("--facet", default="")
    q.add_argument("--p", type=int, default=2)
    q.add_argument("--w1", required=True)
    q.add_argument("--w2", required=True)
    q.add_argument("--witness", action="store_true")
    q.add_argument("--cap", type=int, default=20000)
    q.add_argument("--json", action="store_true")
    q = hsub.add_parser("basis")
    q.add_argument("datum")
    q.add_argument("--facet", default="")
    q.add_argument("--p", type=int, default=2)
    q.add_argument("--w", required=True)
    q.add_argument("--to", choices=("indicator", "phi"), default="indicator")
    q.add_argument("--cap", type=int, default=20000)
    q.add_argument("--json", action="store_true")
    q = hsub.add_parser("pointcount")
    q.add_argument("datum")
    q.add_argument("--facet", default="")
    q.add_argument("--w", required=True)
    q.add_argument("--cap", type=int, default=20000)
    q.add_argument("--json", action="store_true")

    s = sub.add_parser("satake", help="Satake transform")
    s.add_argument("datum")
    s.add_argument("--facet", default="")
    s.add_argument("--levi", default="")
    s.add_argument("--p", type=int, default=2)
    s.add_argument("--w")
    s.add_argument("--special", action="store_true",
                   help="assert a special facet and use the anti-dominant fast path")
    s.add_argument("--list-lambda-minus", action="store_true")
    s.add_argument("--cap", type=int, default=8)
    s.add_argument("--json", action="store_true")

    o = sub.add_parser("oracle", help="cross-validation suite")
    osub = o.add_subparsers(dest="oracle_cmd", required=True)
    q = osub.add_parser("check")
    q.add_argument("datum", nargs="*")
    q.add_argument("--conv-cap", type=int, default=3)
    q.add_argument("--bruhat-cap", type=int, default=4)
    q.add_argument("--length-cap", type=int, default=6)

    return p


def _apply_config(args, argv):
    """Config file values override flag defaults but never explicit flags."""
    if getattr(args, "config", None):
        with open(args.config) as fh:
            doc = json.load(fh)
        if not isinstance(doc, dict):
            raise ValueError(f"config file {args.config} must hold a JSON object")
        given = set(argv)
        for key, val in doc.items():
            attr = key.replace("-", "_")
            flag = "--" + key.replace("_", "-")
            if hasattr(args, attr) and flag not in given:
                setattr(args, attr, val)


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_PARSE if exc.code not in (0, None) else EXIT_OK
    try:
        _apply_config(args, argv)
        if args.cmd == "weyl":
            return cmd_weyl(args)
        if args.cmd == "hecke":
            return cmd_hecke(args)
        if args.cmd == "satake":
            return cmd_satake(args)
        if args.cmd == "oracle":
            return cmd_oracle(args)
        return EXIT_PARSE
    except CapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except (SatakeError,) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except (RootDatumError, HeckeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
