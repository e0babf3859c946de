"""Command-line front end.

Exit codes: 0 success, 1 domain error (diagnostic names the offending
field), 2 parse/usage error.  `--json` switches every verb to a
machine-readable single-line JSON payload carrying "schema": 2 (the
output schema; datum and bundle files stay at schema 1); output is
byte-stable for fixed input.
"""
from __future__ import annotations

import argparse
import sys
from functools import partial

from . import covers, dynkin, picard
from .descent import certify_descent, compute_cG
from .errors import DomainError, ParapicError, ParseError
from .factorization import s3_reduce
from .picard import _json_value
from .verlinde import closed_form_A_log10, rank_closed_form_A, s3_level1_rank

SCHEMA = picard.OUTPUT_SCHEMA


def _emit(args, payload, human: list[str]) -> str:
    """The ``human`` lines, or with --json ``payload`` carrying "schema": 2:
    a dict of values, or a record's writer (called only then), which
    takes the schema and writes it among its own sorted keys."""
    if not args.json:
        return "\n".join(human)
    if isinstance(payload, dict):
        return _json_value({**payload, "schema": SCHEMA})
    return payload(SCHEMA)


def _check_writable(value: int | None, what: str) -> None:
    """Reject an integer with more decimal digits than the interpreter
    writes (``sys.get_int_max_str_digits()``, 4300 by default; 0 means
    no limit): writing it would raise mid-output."""
    limit = sys.get_int_max_str_digits()
    if limit and value is not None and abs(value) >= 10**limit:
        raise DomainError(
            f"{what} has more than {limit} decimal digits, the most Python "
            "writes (sys.set_int_max_str_digits raises the limit)"
        )


def _integer(text: str) -> int:
    """The argparse type of an integer argument: the text ``str(n)``
    writes and nothing else, as in datum and bundle files, so a sign,
    a digit separator, padding, a leading zero or a non-ASCII digit
    exits 2."""
    if not picard._VERTEX_KEY.fullmatch(text):
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    return int(text)


def _nonnegative(text: str) -> int:
    """The argparse type of a count option: a nonnegative `_integer`."""
    if text.startswith("-"):
        raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got {text!r}")
    return _integer(text)


def _split_specs(s: str) -> list[str]:
    """Split on commas outside parentheses, dropping an empty last spec."""
    out = [part.strip() for part in covers.split_top_level(s)]
    if not out[-1]:
        out.pop()
    return out


# ---------------------------------------------------------------------------
# handlers
# ---------------------------------------------------------------------------


def _cmd_dynkin_info(args) -> str:
    t = dynkin.parse_affine_type(args.type)
    rows = [list(row) for row in t.cartan]
    payload = {
        "type": str(t),
        "base": f"{t.base.series}{t.base.rank}",
        "twist": t.twist,
        "vertices": list(t.vertices),
        "dual_labels": list(t.dual_labels),
        "cartan": rows,
    }
    width = max(len(str(v)) for row in rows for v in row)
    human = [
        f"type: {t}",
        f"base: {t.base.series}{t.base.rank}",
        f"twist: {t.twist}",
        "vertices: " + " ".join(str(v) for v in t.vertices),
        "dual labels: " + " ".join(str(a) for a in t.dual_labels),
        "cartan matrix:",
    ]
    for row in rows:
        human.append("  " + " ".join(str(v).rjust(width) for v in row))
    return _emit(args, payload, human)


def _cmd_picard_cdelta(args) -> str:
    d = picard.load_datum(args.datum)
    c = picard.c_delta(d)
    return _emit(args, {"c_delta": c}, [f"c_delta = {c}"])


def _cmd_picard_rank(args) -> str:
    d = picard.load_datum(args.datum)
    r = picard.pic_delta_rank(d)
    return _emit(args, {"rank": r}, [f"pic_delta_rank = {r}"])


def _cmd_picard_check(args) -> str:
    d = picard.load_datum(args.datum)
    b = picard.load_bundle(args.bundle)
    ok, charge = picard.is_pic_delta(d, b)  # validates the bundle once
    dominant = b.dominant
    _check_writable(charge, "the charge")
    payload = {"dominant": dominant, "in_charge_lattice": ok, "charge": charge}
    human = [
        f"dominant: {str(dominant).lower()}",
        f"in charge lattice: {str(ok).lower()}",
        f"charge: {charge if charge is not None else 'n/a'}",
    ]
    return _emit(args, payload, human)


def _cmd_covers_genus(args) -> str:
    gamma = covers.group_from_name(args.group)
    mono = covers.parse_tuple(args.tuple)
    shape = covers.genus_riemann_hurwitz(args.base_genus, gamma, mono)
    _check_writable(shape.genus, "the genus")
    payload = {"genus": shape.genus, "components": shape.component_count}
    return _emit(
        args,
        payload,
        [f"genus = {shape.genus}", f"components = {shape.component_count}"],
    )


def _cmd_covers_connected(args) -> str:
    gamma = covers.group_from_name(args.group)
    r = covers.RamificationVector(gamma, covers.parse_tuple(args.tuple))
    conn = covers.is_connected_genus0(r)
    return _emit(
        args, {"connected": conn}, [f"connected: {str(conn).lower()}"]
    )


def _cmd_covers_enumerate(args) -> str:
    gamma = covers.group_from_name(args.group)
    classes = _split_specs(args.classes)
    count, tuples = covers.enumerate_tuples(
        gamma, classes, connected_only=args.connected
    )
    shown = tuples if args.limit is None else tuples[: args.limit]
    names = [[covers.element_name(p) for p in t] for t in shown]
    human = [f"count = {count}"]
    human += [",".join(row) for row in names]
    return _emit(args, {"count": count, "tuples": names}, human)


def _cmd_reduce_s3(args) -> str:
    mono = covers.parse_tuple(args.tuple)
    w = s3_reduce(mono)
    lines = []
    for f in w.factors:
        line = f"  {f.kind}: " + ",".join(
            covers.element_name(p) for p in f.elements
        )
        if f.conjugator is not None:
            line += f"  [conjugator {covers.element_name(f.conjugator)}]"
        # a labelled run is one line per copy, as its JSON is one entry per copy
        lines += [line] * max(1, len(f.labels) // len(f.elements))
    return _emit(args, partial(_reduce_s3_json, w), [f"factors: {len(lines)}", *lines])


def _reduce_s3_json(w, schema: int) -> str:
    """The ``reduce s3 --json`` payload of the witness ``w``, its keys in
    sorted order."""
    factors, steps = w._json_fields()
    return (f'{{"conservation": {_json_value(list(w.conservation))}, "factors": {factors}, '
            f'"schema": {_json_value(schema)}, "steps": {steps}}}')


def _cmd_verlinde_rank(args) -> str:
    mono = covers.parse_tuple(args.tuple)
    res = s3_level1_rank(mono)
    _check_writable(res.value, "the rank")
    payload = {"rank": res.value, "derivation": [list(x) for x in res.derivation]}
    return _emit(args, payload, [f"rank = {res.value}"])


def _cmd_verlinde_closed_form(args) -> str:
    limit = sys.get_int_max_str_digits()
    digits = closed_form_A_log10(args.g, args.n, args.r)
    if limit and digits > limit + 1:
        # refused before 2^g r^(g+n-1) is built: it may not fit in memory
        raise DomainError(
            f"the rank has about {digits:.4g} decimal digits, more than the "
            f"{limit} Python writes (sys.set_int_max_str_digits raises the limit)"
        )
    v = rank_closed_form_A(args.g, args.n, args.r)
    _check_writable(v, "the rank")
    return _emit(args, {"rank": v}, [f"rank = {v}"])


def _cmd_descend(args) -> str:
    d = picard.load_datum(args.datum)
    b = picard.load_bundle(args.bundle)
    cert = certify_descent(d, b)
    _check_writable(cert.charge, "the charge")
    _check_writable(cert.rank_bound, "the rank bound")
    payload = cert.to_json
    human = [
        f"verdict: {cert.verdict}",
        f"charge: {cert.charge}",
        f"rank bound: {cert.rank_bound if cert.rank_bound is not None else 'unavailable'}",
        f"route: {cert.route}",
    ]
    return _emit(args, payload, human)


def _cmd_cg(args) -> str:
    d = picard.load_datum(args.datum)
    report = compute_cG(d)
    if args.json and report.certificate is not None:
        _check_writable(report.certificate.rank_bound, "the rank bound")
    payload = report.to_json
    human = [f"lower bound (c_delta): {report.lower}"]
    if report.certified_charge is not None:
        human.append(f"certified charge: {report.certified_charge}")
    else:
        human.append("certified charge: none found")
    if report.exact is not None:
        human.append(f"exact: {report.exact}")
    else:
        human.append("exact: undetermined")
    return _emit(args, payload, human)


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="parapic",
        description="Exact invariants of parahoric bundle moduli: "
        "charge lattices, cover bookkeeping, and descent certificates.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true",
                        help="emit machine-readable JSON")
    sub = parser.add_subparsers(dest="verb", required=True)

    def group(name, help):
        """A verb group and its required ``action`` subcommands."""
        return sub.add_parser(name, help=help).add_subparsers(dest="action", required=True)

    def verb(parent, name, help, func, *arguments):
        """One verb: ``--json``, each (name or flag, keywords) argument, ``func``."""
        p = parent.add_parser(name, parents=[common], help=help)
        for flag, keywords in arguments:
            p.add_argument(flag, **keywords)
        p.set_defaults(func=func)

    datum, bundle = ("--datum", {"required": True}), ("--bundle", {"required": True})
    s3, mono = ("--group", {"default": "S3"}), ("tuple", {})

    verb(group("dynkin", "affine type tables"), "info", "Cartan matrix and dual labels",
         _cmd_dynkin_info, ("type", {"help": "affine type string, e.g. A3 or A2~2"}))

    pic = group("picard", "charge-lattice computations")
    verb(pic, "cdelta", "the divisor lower bound", _cmd_picard_cdelta, datum)
    verb(pic, "rank", "rank of the charge lattice", _cmd_picard_rank, datum)
    verb(pic, "check", "validate a bundle against a datum", _cmd_picard_check, datum, bundle)

    cov = group("covers", "Galois-cover bookkeeping")
    verb(cov, "genus", "Riemann-Hurwitz genus", _cmd_covers_genus, s3,
         ("--base-genus", {"type": _nonnegative, "default": 0}),
         ("tuple", {"help": 'monodromies, e.g. "(12),(23),(132)"'}))
    verb(cov, "connected", "genus-0 connectivity", _cmd_covers_connected, s3, mono)
    verb(cov, "enumerate", "tuples with given classes", _cmd_covers_enumerate, s3,
         ("--classes", {"required": True,
                        "help": 'e.g. "transposition,transposition,3-cycle"'}),
         ("--connected", {"action": "store_true"}),
         ("--limit", {"type": _nonnegative,
                      "help": "cap the number of listed tuples"}))

    verb(group("reduce", "rewrite monodromy vectors"), "s3", "decompose into base cases",
         _cmd_reduce_s3, mono)

    ver = group("verlinde", "exact rank evaluation")
    verb(ver, "rank", "level-1 S3 character-sum rank", _cmd_verlinde_rank, mono)
    verb(ver, "closed-form", "2^g r^(g+n-1)", _cmd_verlinde_closed_form,
         *[(name, {"type": _integer}) for name in "gnr"])

    verb(sub, "descend", "descent certificate for a bundle", _cmd_descend, datum, bundle)
    verb(sub, "cg", "bracket the descending-charge generator", _cmd_cg, datum)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code) if e.code is not None else 0
    try:
        out = args.func(args)
    except ParseError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except ParapicError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    print(out)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
