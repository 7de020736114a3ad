"""Command-line front end.

Every verb reads spec files, runs one operation and prints deterministic
JSON (default) or a pre-formatted text report (--golden).  Exit codes:
0 success, 1 domain error, 2 budget or memory exhausted, 64 usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .affinity import (
    AffinityOp,
    canonical_maltsev,
    compose_affinity,
    pseudoconstants,
    roundtrip_check,
)
from .algebra import DEFAULT_CLONE_BUDGET, clone_to_json, term_clone
from .commutator import (
    center,
    commutator,
    is_abelian,
    lower_series,
    upper_series,
)
from .congruence import Congruence
from .errors import BudgetError, MaltkitError
from .extensions import crext_check, enumerate_derivations, lift_maltsev
from .maltsev import (
    check_associative,
    check_commutative,
    check_maltsev,
    find_maltsev_term,
    torsor_to_group,
)
from .monoid import check_linear_extension, check_untwisted, counterexample_harness, trivial_extension
from .specfile import Diagnostic, parse_files, serialize

USAGE_EXIT = 64


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit(USAGE_EXIT)


def _emit(args, payload: dict, golden: str | None = None) -> int:
    if args.golden:
        sys.stdout.write(golden if golden is not None else _render_golden(payload))
    else:
        sys.stdout.write(json.dumps(payload, sort_keys=True) + "\n")
    return 0


def _render_golden(payload, prefix="") -> str:
    lines = []

    def walk(key, value, indent):
        pad = "  " * indent
        if isinstance(value, dict):
            lines.append(f"{pad}{key}:")
            for k in sorted(value):
                walk(k, value[k], indent + 1)
        elif isinstance(value, list):
            lines.append(f"{pad}{key}: " + " ".join(_scalar(v) for v in value))
        else:
            lines.append(f"{pad}{key}: {_scalar(value)}")

    for k in sorted(payload):
        walk(k, payload[k], 0)
    return "\n".join(lines) + "\n"


def _scalar(v):
    if isinstance(v, dict):
        return "{" + ",".join(f"{k}={_scalar(v[k])}" for k in sorted(v)) + "}"
    if isinstance(v, list):
        return "(" + " ".join(_scalar(x) for x in v) + ")"
    return str(v)


def _single(doc, store, option, what):
    table = getattr(doc, store)
    if option:
        if option not in table:
            raise MaltkitError(f"no {what} named {option!r} in the input files")
        return table[option]
    if len(table) != 1:
        raise MaltkitError(
            f"input defines {len(table)} {what}s; pick one with --name"
        )
    return next(iter(table.values()))


def _maltsev_term_for(alg, budget):
    term = find_maltsev_term(alg, budget)
    if term is None:
        raise MaltkitError("algebra has no Maltsev term; commutator calculus refused")
    return term


def _blocks(cong: Congruence):
    return [list(b) for b in cong.blocks()]


def _parse_op(text: str) -> AffinityOp:
    """An argparse type: an operation literal `m,r1,...,rk` of integers; the
    ValueError of anything else is a usage error."""
    values = [int(v) for v in text.split(",")]
    return AffinityOp(values[0], tuple(values[1:]))


def _count(least: int):
    """An argparse type: an integer of at least `least`, else a usage error."""
    def parse(text: str) -> int:
        value = int(text)
        if value < least:
            raise argparse.ArgumentTypeError(f"must be at least {least}, not {value}")
        return value
    return parse


@functools.cache
def _parser() -> _Parser:
    """The argument parser, built on the first call and kept for the process."""
    parser = _Parser(prog="mk", description=__doc__)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--golden", action="store_true", help="pre-formatted text output")
    common.add_argument("--budget", type=_count(1), default=DEFAULT_CLONE_BUDGET)
    sub = parser.add_subparsers(dest="verb")

    def add(name, *specs):
        p = sub.add_parser(name, parents=[common])
        for flags, kwargs in specs:
            p.add_argument(*flags, **kwargs)
        return p

    files = (("files",), {"nargs": "*", "help": "spec files"})
    name = (("--name",), {"default": None})
    add("parse", files)
    add("maltsev-term", files, name)
    add("torsor-check", files, name)
    add("torsor-group", files, name)
    add("clone", files, name, (("--arity",), {"type": _count(0), "default": 1}))
    add("commutator", files, name, (("--R",), {"required": True}), (("--S",), {"required": True}))
    add("center", files, name)
    add("nilpotence", files, name, (("--max",), {"type": _count(0), "default": None}))
    add("affinity-compose", files, (("--form",), {"required": True}),
        (("--outer",), {"type": _parse_op, "required": True}),
        (("--inner",), {"type": _parse_op, "action": "append", "default": [], "required": True}))
    add("abelianize", files, name)
    add("roundtrip", files, (("--form",), {"default": None}))
    add("pseudoconstants", files, (("--form",), {"default": None}))
    add("derivations", files, (("--form",), {"required": True}), (("--bim",), {"required": True}))
    add("crext", files, name)
    add("lift", files, name, (("--image",), {"type": _parse_op, "default": None}),
        (("--preimage",), {"type": _parse_op, "default": None}))
    add("trivial-ext", files, (("--monoid",), {"required": True}),
        (("--system",), {"required": True}))
    add("lin-ext-check", files, name)
    add("untwisted-check", files, name)
    add("counterexample", files)
    return parser


def main(argv=None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    if args.verb is None:
        parser.print_usage(sys.stderr)
        return USAGE_EXIT

    try:
        return _dispatch(args)
    except Diagnostic as exc:
        sys.stdout.write(json.dumps({"error": exc.to_json()}, sort_keys=True) + "\n")
        return 1
    except BudgetError as exc:
        progress = {k: v for k in ("count", "round", "combos_tried")
                    if (v := getattr(exc, k)) is not None}
        sys.stdout.write(
            json.dumps({"error": {"code": type(exc).__name__, "message": str(exc), **progress}},
                       sort_keys=True) + "\n"
        )
        return 2
    except MaltkitError as exc:
        sys.stdout.write(
            json.dumps({"error": {"code": type(exc).__name__, "message": str(exc)}},
                       sort_keys=True) + "\n"
        )
        return 1
    except MemoryError as exc:
        sys.stdout.write(
            json.dumps({"error": {"code": "MemoryError", "message": str(exc)}}, sort_keys=True)
            + "\n"
        )
        return 2


def _dispatch(args) -> int:
    doc = parse_files(getattr(args, "files", []) or [])

    if args.verb == "parse":
        payload = {"entities": doc.summary()}
        return _emit(args, payload, serialize(doc) if args.golden else None)

    if args.verb == "maltsev-term":
        alg = _single(doc, "algebras", args.name, "algebra")
        term = find_maltsev_term(alg, args.budget)
        payload = {
            "found": term is not None,
            "complete": term is None,
            "term": term.term_str() if term else None,
            "table": term.values.ravel().tolist() if term else None,
        }
        return _emit(args, payload)

    if args.verb == "torsor-check":
        tern = _single(doc, "terns", args.name, "ternary table")
        payload = {
            "maltsev": check_maltsev(tern),
            "associative": check_associative(tern),
            "commutative": check_commutative(tern),
        }
        return _emit(args, payload)

    if args.verb == "torsor-group":
        tern = _single(doc, "terns", args.name, "ternary table")
        group = torsor_to_group(tern)
        return _emit(args, {"group": group.to_json()})

    if args.verb == "clone":
        alg = _single(doc, "algebras", args.name, "algebra")
        clone = term_clone(alg, args.arity, args.budget)
        return _emit(args, {"arity": args.arity, "clone": clone_to_json(clone)})

    if args.verb == "commutator":
        alg, R = _congruence_arg(doc, args.R)
        alg2, S = _congruence_arg(doc, args.S)
        if alg is not alg2:
            raise MaltkitError("--R and --S live on different algebras")
        p = _maltsev_term_for(alg, args.budget)
        c = commutator(alg, R, S, p)
        return _emit(args, {"commutator": _blocks(c)})

    if args.verb == "center":
        alg = _single(doc, "algebras", args.name, "algebra")
        p = _maltsev_term_for(alg, args.budget)
        return _emit(args, {"center": _blocks(center(alg, p))})

    if args.verb == "nilpotence":
        alg = _single(doc, "algebras", args.name, "algebra")
        p = _maltsev_term_for(alg, args.budget)
        lower = lower_series(alg, p, args.max)
        upper = upper_series(alg, p, args.max)
        payload = {
            "class": lower.class_,
            "abelian": is_abelian(alg, p),
            "lower": [_blocks(t) for t in lower.terms],
            "upper": [_blocks(t) for t in upper.terms],
        }
        return _emit(args, payload)

    if args.verb == "affinity-compose":
        form = _single(doc, "forms", args.form, "form")
        result = compose_affinity(form, args.outer, args.inner)
        return _emit(args, {"result": result.to_json()})

    if args.verb == "abelianize":
        alg = _single(doc, "algebras", args.name, "algebra")
        from .affinity import abelianize

        p = _maltsev_term_for(alg, args.budget)
        ab = abelianize(alg, p, args.budget)
        return _emit(args, {"form": ab.form.to_json()})

    if args.verb == "roundtrip":
        form = _single(doc, "forms", args.form, "form")
        rep = roundtrip_check(form, args.budget)
        return _emit(args, rep.to_json())

    if args.verb == "pseudoconstants":
        form = _single(doc, "forms", args.form, "form")
        return _emit(args, {"pseudoconstants": list(pseudoconstants(form))})

    if args.verb == "derivations":
        form = _single(doc, "forms", args.form, "form")
        bim = _single(doc, "bimodules", args.bim, "bimodule")
        rep = enumerate_derivations(form, bim)
        return _emit(args, rep.to_json())

    if args.verb == "crext":
        ext = _single(doc, "crexts", args.name, "extension diagram")
        return _emit(args, crext_check(ext).to_json())

    if args.verb == "lift":
        ext = _single(doc, "crexts", args.name, "extension diagram")
        image = canonical_maltsev(ext.base) if args.image is None else args.image
        lifted = lift_maltsev(ext, image, args.preimage)
        return _emit(args, {"lifted": lifted.to_json()})

    if args.verb == "trivial-ext":
        mon = _single(doc, "monoids", args.monoid, "monoid")
        system = _single(doc, "systems", args.system, "natural system")
        ext = trivial_extension(mon, system)
        return _emit(args, {"extension": ext.to_json()})

    if args.verb == "lin-ext-check":
        ext = _single(doc, "extensions", args.name, "extension")
        return _emit(args, check_linear_extension(ext).to_json())

    if args.verb == "untwisted-check":
        ext = _single(doc, "extensions", args.name, "extension")
        return _emit(args, check_untwisted(ext).to_json())

    if args.verb == "counterexample":
        rep = counterexample_harness()
        return _emit(args, rep.to_json(), rep.golden_text())

    raise MaltkitError(f"unhandled verb {args.verb}")


def _congruence_arg(doc, name):
    if name not in doc.congruences:
        raise MaltkitError(f"no congruence named {name!r} in the input files")
    alg_name, cong = doc.congruences[name]
    return doc.algebras[alg_name], cong


if __name__ == "__main__":
    raise SystemExit(main())
