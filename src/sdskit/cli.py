"""Batch driver: build presentations, run insertions, execute verification suites.

Exit codes: 0 for pass (or a probe's outcome), 1 for a verified failure
(the report carries the witness), 2 for usage or parse errors.  Output is
deterministic: identical inputs produce byte-identical reports.  Every
name is looked up in `registry`; the CLI holds no per-family logic.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import chinese, coherence, extra, registry
from .rewriting import check_local_confluence, system_to_json, termination_certificate
from .sds import (
    check_associativity,
    check_axioms,
    check_commutation,
    check_compatibility,
    check_cross_section,
    report,
)


def _emit(args, payload: dict | str) -> None:
    if isinstance(payload, str):
        text = payload
    elif args.format == "text":
        text = "\n".join(f"{k}: {json.dumps(v)}" for k, v in payload.items())
    else:
        text = json.dumps(payload, indent=2)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def cmd_insert(args) -> int:
    entry = registry.lookup(registry.STRUCTURES, args.structure, "structure")
    word = tuple(int(tok) for tok in args.word.split())
    n = args.n if args.n is not None else max(word, default=0)
    datum = entry.parse_datum(args.datum, n)
    _emit(args, entry.format_datum(entry.factory(n).insert_word(datum, word)))
    return 0


def cmd_build(args) -> int:
    _emit(args, system_to_json(registry.build_presentation(args.name, args.n,
                                                           args.max_len).system))
    return 0


def _commutation(name: str, n: int, L: int, budget) -> dict:
    right, left = registry.lookup(registry.COMMUTATION_PAIRS, name, "commutation pair")
    return check_commutation(registry.get_structure(right, n),
                             registry.get_structure(left, n), L)


def _with_congruence(name: str, n: int, L: int):
    congruence = registry.lookup(registry.DEFAULT_CONGRUENCE, name, "congruence")
    return registry.get_structure(name, n), congruence(n, L)


def _confluence(name: str, n: int, L: int, budget) -> dict:
    result = check_local_confluence(registry.build_presentation(name, n, L).system, budget)
    witness = None
    if not result.confluent:
        bad = result.failures[0]
        witness = {"source": list(bad.branching.source), "left": list(bad.left_target),
                   "right": list(bad.right_target)}
    return report("confluence", name, {"n": n}, "pass" if result.confluent else "fail",
                  branchings=len(result.checks), witness=witness)


def _termination(name: str, n: int, L: int, budget) -> dict:
    order = registry.lookup(registry.TERMINATION_ORDERS, name, "termination order")
    pres = registry.build_presentation(name, n, L)
    cert = termination_certificate(pres.system, len, order(pres, n))
    witness = None
    if cert.witness is not None:
        witness = {"lhs": list(cert.witness.lhs), "rhs": list(cert.witness.rhs)}
    return report("termination", name, {"n": n}, "pass" if cert.passes else "fail",
                  witness=witness)


# check name -> (structure name, n, max_len, budget) -> report
CHECKS = {
    "axioms": lambda name, n, L, budget: check_axioms(registry.get_structure(name, n), L),
    "associativity": lambda name, n, L, budget:
        check_associativity(registry.get_structure(name, n), L),
    "commutation": _commutation,
    "cross-section": lambda name, n, L, budget:
        check_cross_section(*_with_congruence(name, n, L), L),
    "compatibility": lambda name, n, L, budget:
        check_compatibility(*_with_congruence(name, n, L), L),
    "confluence": _confluence,
    "termination": _termination,
    "path-bounds": lambda name, n, L, budget: chinese.verify_path_bounds(n),
    "cell-shapes": lambda name, n, L, budget:
        registry.lookup(registry.CELLS, name, "cell shapes").verify_shapes(n, budget),
    "probe": lambda name, n, L, budget: extra.commutation_probe(
        *registry.lookup(registry.PROBE_PAIRS, name, "probe pair")(n), n, L),
}


def cmd_check(args) -> int:
    result = CHECKS[args.check](args.structure, args.n, args.max_len, args.budget)
    _emit(args, result)
    # 1 only for a verified failure; a probe's outcome is never "fail"
    return 1 if result["result"] == "fail" else 0


def cmd_cells(args) -> int:
    name, n = args.structure, args.n
    family = registry.lookup(registry.CELLS, name, "cells")
    pres = registry.build_presentation(name, n)
    if args.kind == "squier":
        cells = coherence.squier_cells(pres.system, args.budget)
    else:
        cells = coherence.strategy_cells(pres, family.generating_set(n), budget=args.budget)
    _emit(args, {"structure": name, "params": {"n": n, "kind": args.kind},
                 "alphabet": list(pres.system.alphabet.labels),
                 "cells": [coherence.cell_to_json(c) for c in cells]})
    return 0


def _at_least(low: int):
    def integer(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value
    return integer


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="sdskit")
    sub = parser.add_subparsers(dest="command", required=True)
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--out")
    output.add_argument("--format", choices=("json", "text"), default="json")

    p_insert = sub.add_parser("insert", parents=[output],
                              help="insert a word into a structure")
    p_insert.add_argument("--structure", required=True)
    p_insert.add_argument("--word", required=True)
    p_insert.add_argument("--datum", default="", help="starting datum in the structure's text format")
    p_insert.add_argument("--n", type=_at_least(0))
    p_insert.set_defaults(fn=cmd_insert)

    p_build = sub.add_parser("build", parents=[output], help="build a presentation")
    p_build.add_argument("name", choices=registry.PRESENTATION_NAMES)
    p_build.add_argument("--n", type=_at_least(1), required=True)
    p_build.add_argument("--max-len", type=int, default=None,
                         help="bound for the variable-length rule families")
    p_build.set_defaults(fn=cmd_build)

    p_check = sub.add_parser("check", parents=[output], help="run a verification")
    p_check.add_argument("check", choices=tuple(CHECKS))
    p_check.add_argument("--structure", default="chinese")
    p_check.add_argument("--n", type=_at_least(1), required=True)
    p_check.add_argument("--max-len", type=_at_least(0), default=5)
    p_check.add_argument("--budget", type=int, default=None)
    p_check.set_defaults(fn=cmd_check)

    p_cells = sub.add_parser("cells", parents=[output], help="export coherence cells")
    p_cells.add_argument("--structure", required=True)
    p_cells.add_argument("--n", type=_at_least(1), required=True)
    p_cells.add_argument("--kind", choices=("squier", "strategy"), default="squier")
    p_cells.add_argument("--budget", type=int, default=None)
    p_cells.set_defaults(fn=cmd_cells)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
