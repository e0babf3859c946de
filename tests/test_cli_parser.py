"""The command-line parser tree, pinned by structure.

Each reachable parser is recorded by its prog, description and handler,
each action by kind, flags (or dest), required, default, type, nargs and
help, and each subcommand group by its names and their help in order.
Unlike help text, none of this depends on the terminal width or on the
Python minor version.
"""
from __future__ import annotations

import argparse

from parapic.cli import build_parser

# actions that several parsers share
HELP = ("_HelpAction", ("-h", "--help"), False, "==SUPPRESS==", None, 0,
        "show this help message and exit")
JSON = ("_StoreTrueAction", ("--json",), False, False, None, 0, "emit machine-readable JSON")
DATUM = ("_StoreAction", ("--datum",), True, None, None, None, None)
BUNDLE = ("_StoreAction", ("--bundle",), True, None, None, None, None)
GROUP = ("_StoreAction", ("--group",), False, "S3", None, None, None)
TUPLE = ("_StoreAction", "tuple", True, None, None, None, None)


def _subparsers(dest: str) -> tuple:
    return ("_SubParsersAction", dest, True, None, None, "A...", None)


def _group(*verbs) -> tuple:
    """A verb group: its required ``action`` subcommands, in order."""
    return (None, None, [HELP, _subparsers("action")], [list(verbs)])


def _verb(handler: str, *actions) -> tuple:
    return (None, handler, [HELP, JSON, *actions], [])


TREE = {
    "parapic": (
        "Exact invariants of parahoric bundle moduli: charge lattices, "
        "cover bookkeeping, and descent certificates.",
        None,
        [HELP, _subparsers("verb")],
        [[("dynkin", "affine type tables"),
          ("picard", "charge-lattice computations"),
          ("covers", "Galois-cover bookkeeping"),
          ("reduce", "rewrite monodromy vectors"),
          ("verlinde", "exact rank evaluation"),
          ("descend", "descent certificate for a bundle"),
          ("cg", "bracket the descending-charge generator")]],
    ),
    "parapic dynkin": _group(("info", "Cartan matrix and dual labels")),
    "parapic dynkin info": _verb(
        "_cmd_dynkin_info",
        ("_StoreAction", "type", True, None, None, None, "affine type string, e.g. A3 or A2~2"),
    ),
    "parapic picard": _group(("cdelta", "the divisor lower bound"),
                             ("rank", "rank of the charge lattice"),
                             ("check", "validate a bundle against a datum")),
    "parapic picard cdelta": _verb("_cmd_picard_cdelta", DATUM),
    "parapic picard rank": _verb("_cmd_picard_rank", DATUM),
    "parapic picard check": _verb("_cmd_picard_check", DATUM, BUNDLE),
    "parapic covers": _group(("genus", "Riemann-Hurwitz genus"),
                             ("connected", "genus-0 connectivity"),
                             ("enumerate", "tuples with given classes")),
    "parapic covers genus": _verb(
        "_cmd_covers_genus",
        GROUP,
        ("_StoreAction", ("--base-genus",), False, 0, "_nonnegative", None, None),
        ("_StoreAction", "tuple", True, None, None, None, 'monodromies, e.g. "(12),(23),(132)"'),
    ),
    "parapic covers connected": _verb("_cmd_covers_connected", GROUP, TUPLE),
    "parapic covers enumerate": _verb(
        "_cmd_covers_enumerate",
        GROUP,
        ("_StoreAction", ("--classes",), True, None, None, None,
         'e.g. "transposition,transposition,3-cycle"'),
        ("_StoreTrueAction", ("--connected",), False, False, None, 0, None),
        ("_StoreAction", ("--limit",), False, None, "_nonnegative", None,
         "cap the number of listed tuples"),
    ),
    "parapic reduce": _group(("s3", "decompose into base cases")),
    "parapic reduce s3": _verb("_cmd_reduce_s3", TUPLE),
    "parapic verlinde": _group(("rank", "level-1 S3 character-sum rank"),
                               ("closed-form", "2^g r^(g+n-1)")),
    "parapic verlinde rank": _verb("_cmd_verlinde_rank", TUPLE),
    "parapic verlinde closed-form": _verb(
        "_cmd_verlinde_closed_form",
        *[("_StoreAction", name, True, None, "_integer", None, None) for name in "gnr"],
    ),
    "parapic descend": _verb("_cmd_descend", DATUM, BUNDLE),
    "parapic cg": _verb("_cmd_cg", DATUM),
}


def _walk(parser: argparse.ArgumentParser, out: dict) -> dict:
    """Record ``parser`` and every parser below it, parents first."""
    func = parser._defaults.get("func")
    actions, groups, children = [], [], []
    for a in parser._actions:
        actions.append((type(a).__name__, tuple(a.option_strings) or a.dest, a.required,
                        a.default, getattr(a.type, "__name__", None), a.nargs, a.help))
        if isinstance(a, argparse._SubParsersAction):
            groups.append([(c.dest, c.help) for c in a._choices_actions])
            children += a.choices.values()
    out[parser.prog] = (parser.description, func and func.__name__, actions, groups)
    for child in children:
        _walk(child, out)
    return out


def test_the_parser_tree_is_pinned_by_structure():
    tree = _walk(build_parser(), {})
    assert list(tree) == list(TREE)
    for prog, record in TREE.items():
        assert tree[prog] == record, prog
