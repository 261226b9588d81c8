"""Command-line front end.

Subcommands mirror the library layers: `weyl` for word-level computations,
`hecke` for algebra products and point counts, `satake` for transforms,
and `oracle check` for the cross-validation matrix.

Exit codes: 0 success, 1 failed self-check (oracle cell, witness replay),
2 parse error, 3 cap exceeded, 4 precondition violation, 5 I/O failure.
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
from .satake import SatakeError

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_CAP = 3
EXIT_PRECONDITION = 4
EXIT_IO = 5


def _parse_indices(text: str) -> tuple:
    """A comma-separated index list, spaces dropped, '' for none; each index
    is an integer of the element grammar (`affine_weyl._INTEGERS`)."""
    body = text.strip().replace(" ", "")
    if not aw._INTEGERS.fullmatch(body):
        raise ValueError(f"cannot parse index list {text!r}")
    return tuple(int(v) for v in body.split(",")) if body else ()


def _levi_root_indices(datum, text: str) -> tuple:
    """--levi uses the same index space as --facet (affine simple system);
    the indices must name finite nodes, translated here to root indices."""
    system = aw.simple_system(datum)
    root_index = {node: i for i, node in system.index_of_finite.items()}
    out = []
    for i in _parse_indices(text or ""):
        system.simple(i)  # an index off the diagram is a parse error
        if i not in root_index:
            raise SatakeError(f"--levi index {i} is not a finite simple node")
        out.append(root_index[i])
    return tuple(out)


def _load_datum(spec: str):
    if spec.startswith("{"):
        return rd.from_json(spec)
    if spec.endswith(".json"):
        with open(spec) as fh:
            return rd.from_json(fh.read())
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
        try:
            witness.replay()
        except HeckeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
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
        cap = 8 if args.cap is None else args.cap
        for z in sat.enumerate_antidominant(datum, cap):
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
    has_point = sat.component_has_levi_point(label, levi, f)
    cap = aw.INTERVAL_CAP if args.cap is None else args.cap
    out = (sat.phi_c_w(label, w, levi, f, args.p, cap) if has_point
           else sat.LeviHeckeElement(levi, f, args.p, {}))
    if args.special:
        terms = [{"z": "t[" + ",".join(map(str, datum.x_coords(z))) + "]", "coeff": c}
                 for z, c in sorted(out.to_monoid().coeffs.items())]
    else:
        terms = out.to_json()["terms"]
    _emit(args, {"closed_component": element_to_string(label),
                 "has_levi_point": has_point, "image": terms})
    return EXIT_OK


# -- oracle -----------------------------------------------------------------------


def cmd_oracle(args) -> int:
    data = [_load_datum(spec) for spec in args.datum or ("A1", "A2")]
    rows = oracle_mod.run_checks(data, args.conv_cap, args.bruhat_cap, args.length_cap)
    ok = all(r["ok"] for _, r in rows)
    width = max(8, *(len(r["datum"]) for _, r in rows))
    for name, r in rows:
        status = "pass" if r["ok"] else "FAIL"
        print(f"{r['datum']:>{width}}  {name:<12} {status}  {json.dumps(r, sort_keys=True)}")
    print("oracle check:", "all pass" if ok else "FAILURES")
    return EXIT_OK if ok else 1


COMMANDS = {"weyl": cmd_weyl, "hecke": cmd_hecke, "satake": cmd_satake, "oracle": cmd_oracle}
# The first matching type gives the exit code: SatakeError is a ValueError,
# so it comes before ValueError (RootDatumError and HeckeError among them).
EXIT_CODES = {CapExceeded: EXIT_CAP, SatakeError: EXIT_PRECONDITION,
              ValueError: EXIT_PARSE, OSError: EXIT_IO}


# -- argument parsing ----------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Reports a bad command line like any other malformed input: an
    'error: ' line on stderr (then the usage) and exit 2."""

    def error(self, message):
        self.exit(EXIT_PARSE, f"error: {message}\n{self.format_usage()}")


def nonnegative_int(text: str) -> int:
    """The type of the cap flags; a negative value is a ValueError."""
    val = int(text)
    if val < 0:
        raise ValueError(f"{val} is negative")
    return val


def _shared(*args, **kwargs) -> argparse.ArgumentParser:
    """A parent parser declaring one flag that several subcommands take."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(*args, **kwargs)
    return parent


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="modp-hecke",
                description="mod p parahoric Hecke algebra computations")
    sub = p.add_subparsers(dest="cmd", required=True)
    datum = _shared("datum")
    datum.add_argument("--json", action="store_true")
    at_facet = _shared("--facet", default="")
    mod_p = _shared("--p", type=int, default=2)
    capped = _shared("--cap", type=nonnegative_int, default=aw.INTERVAL_CAP)

    w = sub.add_parser("weyl", help="affine Weyl group computations")
    wsub = w.add_subparsers(dest="weyl_cmd", required=True)
    for name in ("reduce", "length"):
        wsub.add_parser(name, parents=[datum]).add_argument("--elt", required=True)
    q = wsub.add_parser("leq", parents=[datum])
    q.add_argument("--u", required=True)
    q.add_argument("--w", required=True)
    q = wsub.add_parser("demazure", parents=[datum])
    q.add_argument("--word", required=True, help="comma-separated simple indices")

    h = sub.add_parser("hecke", help="Hecke algebra products and bases")
    hsub = h.add_subparsers(dest="hecke_cmd", required=True)
    q = hsub.add_parser("multiply", parents=[datum, at_facet, mod_p, capped])
    q.add_argument("--w1", required=True)
    q.add_argument("--w2", required=True)
    q.add_argument("--witness", action="store_true")
    q = hsub.add_parser("basis", parents=[datum, at_facet, mod_p, capped])
    q.add_argument("--w", required=True)
    q.add_argument("--to", choices=("indicator", "phi"), default="indicator")
    hsub.add_parser("pointcount", parents=[datum, at_facet, capped]).add_argument(
        "--w", required=True)

    s = sub.add_parser("satake", help="Satake transform", parents=[datum, at_facet, mod_p])
    s.add_argument("--levi", default="")
    s.add_argument("--w")
    s.add_argument("--special", action="store_true",
                   help="assert a special facet and the minimal Levi; print e^z terms")
    s.add_argument("--list-lambda-minus", action="store_true")
    s.add_argument("--cap", type=nonnegative_int,
                   help="length cap of --list-lambda-minus (default 8), else the most "
                        "right W_{M,f}-cosets the transform's walk inside the Schubert "
                        f"scheme may visit (default {aw.INTERVAL_CAP})")

    o = sub.add_parser("oracle", help="cross-validation suite")
    osub = o.add_subparsers(dest="oracle_cmd", required=True)
    q = osub.add_parser("check")
    q.add_argument("datum", nargs="*")
    q.add_argument("--conv-cap", type=nonnegative_int, default=3)
    q.add_argument("--bruhat-cap", type=nonnegative_int, default=4)
    q.add_argument("--length-cap", type=nonnegative_int, default=6)

    return p


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_PARSE if exc.code not in (0, None) else EXIT_OK
    try:
        return COMMANDS[args.cmd](args)
    except tuple(EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in EXIT_CODES.items() if isinstance(exc, kind))


if __name__ == "__main__":
    sys.exit(main())
