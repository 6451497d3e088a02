"""Batch driver: build presentations, run insertions, execute verification suites.

Exit codes: 0 for pass (or a probe's outcome), 1 for a verified failure
(the report carries the witness), 2 for usage or parse errors.  Output is
deterministic: identical inputs produce byte-identical reports.  Every
name is looked up in `registry`; the CLI holds no per-family logic.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections.abc import Iterator
from functools import cache
from json.encoder import encode_basestring_ascii

from . import coherence, registry, rewriting
from .rewriting import check_local_confluence, system_to_json, termination_witness
from .sds import (
    check_associativity,
    check_axioms,
    check_commutation,
    check_compatibility,
    check_cross_section,
    parse_ints,
    report,
)


def _to_json(value, indent: str = ""):
    """The pieces of `json.dumps(value, indent=2)`, in order and byte for
    byte, for a value nested at `indent`; an iterator is written as an
    array and consumed once.  With an indent `json` falls back to its
    pure-Python encoder; writing dicts and lists here, and each flat value
    in one piece, is about twice as fast on large reports."""
    text = _flat(value, indent)
    if text is not None:
        yield text
        return
    inner = indent + "  "
    if isinstance(value, dict):
        brackets, items = "{}", ((_json_key(k) + ": ", v) for k, v in value.items())
    else:
        brackets, items = "[]", (("", v) for v in value)
    sep = brackets[0] + "\n" + inner
    for key, v in items:
        text = _flat(v, inner)
        if text is None:
            yield sep + key
            yield from _to_json(v, inner)
        else:
            yield sep + key + text
        sep = ",\n" + inner
    if sep[0] == ",":   # at least one item was written
        yield "\n" + indent + brackets[1]
    else:
        yield brackets


def _flat(value, indent: str) -> str | None:
    """The text of a scalar, of a list of ints or of a nonempty dict of
    those; None for any other value, which is written piece by piece."""
    if not isinstance(value, dict):
        return _scalar(value, indent)
    inner = indent + "  "
    texts = [_scalar(v, inner) for v in value.values()]
    if not texts or None in texts:
        return None
    items = [f"{_json_key(k)}: {text}" for k, text in zip(value, texts)]
    return "{\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "}"


def _scalar(value, indent: str) -> str | None:
    """The text of a scalar or of a list of ints; None for any other value."""
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        if set(map(type, value)) != {int}:
            return None
        inner = indent + "  "
        return "[\n" + inner + (",\n" + inner).join(map(str, value)) + "\n" + indent + "]"
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if isinstance(value, (dict, Iterator)):
        return None
    return json.dumps(value)


def _json_key(key) -> str:
    # json writes an int, float, bool or None key as the string of its value
    if not isinstance(key, str):
        if key is not None and not isinstance(key, (int, float)):
            raise TypeError(f"keys must be str, int, float, bool or None, "
                            f"not {type(key).__name__}")
        key = json.dumps(key)
    return encode_basestring_ascii(key)


CHUNK = 1 << 13     # characters per write: one write per piece is slow on a pipe


def _emit(args, payload: dict | str) -> None:
    """Write the report and a final newline in chunks of about CHUNK
    characters, so that a report's text is never held whole."""
    if isinstance(payload, str):
        pieces = (payload,)
    elif args.format == "text":
        pieces = _text_pieces(payload)
    else:
        pieces = _to_json(payload)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            _write(fh, pieces)
    else:
        _write(sys.stdout, pieces)


def _text_pieces(payload: dict):
    """The pieces of one "key: value" line per field, each value as
    `json.dumps(value, default=list)` writes it: an iterator or a set is
    written as the list of its items, and an iterator field one item at a
    time, so that its items are never held together."""
    encode, sep = json.JSONEncoder(default=list).encode, ""
    for key, value in payload.items():
        if isinstance(value, Iterator):
            yield f"{sep}{key}: ["
            comma = ""
            for item in value:
                yield comma + encode(item)
                comma = ", "
            yield "]"
        else:
            yield f"{sep}{key}: {encode(value)}"
        sep = "\n"


def _write(stream, pieces) -> None:
    chunk, size = [], 0
    for piece in pieces:
        chunk.append(piece)
        size += len(piece)
        if size >= CHUNK:
            stream.write("".join(chunk))
            chunk, size = [], 0
    chunk.append("\n")
    stream.write("".join(chunk))


def cmd_insert(args) -> int:
    entry = registry.lookup(registry.STRUCTURES, args.structure, "structure")
    word = parse_ints(args.word.split())
    n = args.n if args.n is not None else max(word, default=0)
    datum, structure = entry.parse_datum(args.datum, n), entry.factory(n)
    _emit(args, entry.format_datum(structure.insert_long(datum, word)))
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
    entry = registry.lookup(registry.STRUCTURES, name, "congruence")
    # the empty word alone would be examined, so a pass would rest on nothing
    if L == 0:
        raise ValueError(f"{name} at n={n}, --max-len {L} has no nonempty word: "
                         "nothing to check")
    return entry.factory(n), entry.congruence(n, L)


def _confluence(name: str, n: int, L: int, budget) -> dict:
    legs = check_local_confluence(registry.build_presentation(name, n, L).system, budget)
    if not legs:    # a pass would rest on nothing examined
        raise ValueError(f"{name} at n={n}, --max-len {L} has no critical branching: "
                         "nothing to check")
    witnesses = [w for b, left, right in legs
                 if (w := coherence.legs_witness(b.source, left, right))]
    return report("confluence", name, {"n": n}, "fail" if witnesses else "pass",
                  branchings=len(legs),
                  budget_hits=sum("reason" in w for w in witnesses) or None,
                  witness=witnesses[0] if witnesses else None)


def _associativity(name: str, n: int, L: int, budget) -> dict:
    structure = registry.get_structure(name, n)
    # below 3 letters each triple holds the empty datum, so a pass would
    # rest on the section property alone
    if L < 3:
        raise ValueError(f"{name} at n={n}, --max-len {L} has no triple of nonempty data: "
                         "nothing to check")
    return check_associativity(structure, L)


def _termination(name: str, n: int, L: int, budget) -> dict:
    order = registry.lookup(registry.TERMINATION_ORDERS, name, "termination order")
    pres = registry.build_presentation(name, n, L)
    if not pres.system.rules:   # a pass would rest on no rule
        raise ValueError(f"{name} at n={n} has no rules: nothing to check")
    rule = termination_witness(pres.system, order(pres))
    if rule is None:
        return report("termination", name, {"n": n}, "pass")
    return report("termination", name, {"n": n}, "fail",
                  witness={"lhs": list(rule.lhs), "rhs": list(rule.rhs)})


def _counted(table: dict, what: str, count: str):
    """The check of `table`'s verifier for a name at (n, budget), refusing a
    pass whose report counts no `count` examined."""
    def check(name: str, n: int, L: int, budget) -> dict:
        result = registry.lookup(table, name, what)(n, budget)
        if result.get(count) == 0:
            raise ValueError(f"{name} at n={n} has no {count}: nothing to check")
        return result
    return check


# check name -> (structure name, n, max_len, budget) -> report
CHECKS = {
    "axioms": lambda name, n, L, budget: check_axioms(registry.get_structure(name, n), L),
    "associativity": _associativity,
    "commutation": _commutation,
    "cross-section": lambda name, n, L, budget:
        check_cross_section(*_with_congruence(name, n, L), L),
    "compatibility": lambda name, n, L, budget:
        check_compatibility(*_with_congruence(name, n, L), L),
    "confluence": _confluence,
    "termination": _termination,
    "path-bounds": _counted(registry.PATH_BOUNDS, "path bounds", "triples"),
    "cell-shapes": _counted(registry.CELLS, "cell shapes", "cells"),
    "probe": lambda name, n, L, budget: registry.probe(name, n, L),
}


def cmd_check(args) -> int:
    result = CHECKS[args.check](args.structure, args.n, args.max_len, args.budget)
    _emit(args, result)
    # 1 only for a verified failure; a probe's outcome is never "fail"
    return 1 if result["result"] == "fail" else 0


def cmd_cells(args) -> int:
    name, n = args.structure, args.n
    registry.lookup(registry.CELLS, name, "cells")     # only registered families have cells
    pres = registry.build_presentation(name, n)
    if args.kind == "squier":
        cells = coherence.squier_cells(pres.system, args.budget)
    else:
        cells = coherence.strategy_cells(pres, budget=args.budget)
    _emit(args, {"structure": name, "params": {"n": n, "kind": args.kind},
                 "alphabet": list(pres.system.alphabet.labels),
                 "cells": map(coherence.cell_to_json, cells)})
    return 0


def _at_least(low: int):
    def integer(text: str) -> int:
        (value,) = parse_ints((text,))
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value
    return integer


@cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on first use and shared by every later call
    in the process (parsing leaves no state on it)."""
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
    p_build.add_argument("--max-len", type=_at_least(0), default=None,
                         help="bound for the variable-length rule families")
    p_build.set_defaults(fn=cmd_build)

    p_check = sub.add_parser("check", parents=[output], help="run a verification")
    p_check.add_argument("check", choices=tuple(CHECKS))
    p_check.add_argument("--structure", default="chinese")
    p_check.add_argument("--n", type=_at_least(1), required=True)
    p_check.add_argument("--max-len", type=_at_least(0), default=5)
    p_check.add_argument("--budget", type=_at_least(0), default=None)
    p_check.set_defaults(fn=cmd_check)

    p_cells = sub.add_parser("cells", parents=[output], help="export coherence cells")
    p_cells.add_argument("--structure", required=True)
    p_cells.add_argument("--n", type=_at_least(1), required=True)
    p_cells.add_argument("--kind", choices=("squier", "strategy"), default="squier")
    p_cells.add_argument("--budget", type=_at_least(0), default=None)
    p_cells.set_defaults(fn=cmd_cells)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader went away: send what is still buffered to devnull so
        # that the flush at exit does not fail too
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except coherence.CellFailure as exc:
        # a truncated run or a verified failure, not bad input
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (KeyError, ValueError, OSError) as exc:
        # bad input, or an --out path that cannot be written; str() of a
        # KeyError is the repr of its message, quotes and all
        message = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return 2
    finally:
        # a command's step tables die with it, so that a later command that
        # builds an equal system does not compare it with the cached one,
        # rule by rule, at every step it selects
        rewriting.release_step_tables()


if __name__ == "__main__":
    sys.exit(main())
