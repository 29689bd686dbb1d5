"""Command-line front end.

Exit codes: 0 success, 1 mathematical failure (with the report still
emitted), 2 usage or configuration error.  Identical arguments (including
seeds) produce byte-identical JSON.
"""

from __future__ import annotations

import argparse
import json
import sys

from .completion import (
    ClassDouble,
    CompletionGroup,
    WitnessSearch,
    build_completion,
    check_universal_factorization,
    completion_to_json,
    partition_classes,
)
from .core import DEFAULT_SEED, CheckMode, check_total_associativity
from .doubles import all_doubles, builtin_quiver, hetero_power, parse_quiver
from .errors import (
    ArityMismatch,
    BoundExhausted,
    ExhaustiveOnInfiniteCarrier,
    InvalidQuiver,
    NoClosedArity,
    NotAHomomorphism,
    NotQuantized,
    PolyadicError,
    UnknownQuiver,
    UsageError,
)
from .structures import get_recipe, integers_group, integers_mod_group, recipe_names
from .tables import read_table

_CONFIG_ERRORS = (UsageError, ArityMismatch, UnknownQuiver, NotQuantized,
                  InvalidQuiver, NoClosedArity, ExhaustiveOnInfiniteCarrier)


def _resolve_structure(spec: str, bound: int | None):
    """Returns (structure, recipe-or-None)."""
    if spec.startswith("table:"):
        path = spec[len("table:"):]
        try:
            return read_table(path), None
        except OSError as exc:
            raise UsageError(f"cannot read table file: {exc}") from None
        except ValueError as exc:
            raise UsageError(f"bad table file {path!r}: {exc}") from None
    recipe = get_recipe(spec)
    return recipe.build(bound if bound is not None else recipe.default_limit), recipe


def _resolve_quiver(text: str):
    if "<-" in text:
        return parse_quiver(text, name="custom")
    return builtin_quiver(text)


def _default_mode(structure) -> CheckMode:
    if structure.carrier.is_finite:
        return CheckMode.exhaustive()
    return CheckMode.sampled(1000, DEFAULT_SEED)


def _decision(recipe, structure):
    if recipe is not None:
        return recipe.exact_decision()
    return WitnessSearch()


def _count(text: str) -> int:
    """argparse type of a sample count: an integer >= 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _emit(args, payload: dict, text_lines: list) -> None:
    if args.output == "json":
        print(json.dumps(payload, indent=2))
    else:
        for line in text_lines:
            print(line)


# ---------------------------------------------------------------------------
# commands


def cmd_assoc_check(args) -> int:
    s, _recipe = _resolve_structure(args.structure, args.bound)
    target = s
    quiver_str = None
    if args.quiver:
        q = _resolve_quiver(args.quiver)
        target = hetero_power(s, q).structure
        quiver_str = q.name or args.quiver
    mode = CheckMode.parse(args.mode) if args.mode else _default_mode(target)
    verdict = check_total_associativity(target, mode)
    payload = {
        "structure": args.structure,
        "quiver": quiver_str,
        "mode": str(mode),
        "verdict": str(verdict),
        "ok": verdict.ok,
    }
    lines = [f"total associativity of {args.structure}"
             + (f" through {quiver_str}" if quiver_str else "")
             + f" [{mode}]: {verdict}"]
    _emit(args, payload, lines)
    return 0 if verdict.ok else 1


def _build(args) -> CompletionGroup:
    s, recipe = _resolve_structure(args.structure, args.bound)
    q = _resolve_quiver(args.quiver)
    assoc_mode = CheckMode.parse(args.mode) if args.mode else None
    return build_completion(
        s, q, _decision(recipe, s),
        quer_mode=args.quer_mode,
        canonical=recipe.canonical_double if recipe else None,
        assoc_mode=assoc_mode,
        samples=args.samples,
        seed=args.seed,
    )


def cmd_complete(args) -> int:
    K = _build(args)
    payload = completion_to_json(K)
    lines = [
        f"completion of {args.structure} through {K.quiver.name or 'quiver'}: "
        f"m={K.m}, n={K.n}, {K.partition.class_count()} classes",
        f"  associative:  {K.report.associative}",
        f"  well-defined: {K.report.well_defined}",
        f"  group:        {K.report.group}",
    ]
    _emit(args, payload, lines)
    return 0 if K.report.ok else 1


def cmd_classes(args) -> int:
    s, recipe = _resolve_structure(args.structure, args.bound)
    try:
        part = partition_classes(s, all_doubles(s.carrier), _decision(recipe, s),
                                 canonical=recipe.canonical_double if recipe else None)
    except BoundExhausted as exc:
        print(f"cannot partition: {exc}", file=sys.stderr)
        return 1
    reps = [[s.carrier.render(r.top), s.carrier.render(r.bottom)] for r in part.reps]
    payload = {"structure": args.structure, "m": s.arity,
               "domain_size": len(part.domain), "classes": reps}
    lines = [f"{len(reps)} classes over {len(part.domain)} doubles:"]
    lines.extend(f"  [{a};{b}]" for a, b in reps)
    _emit(args, payload, lines)
    return 0


def cmd_quer(args) -> int:
    K = _build(args)
    payload = completion_to_json(K)
    lines = [f"quer table for {args.structure} through {K.quiver.name or 'quiver'}:"]
    if K.quer is None:
        lines.append(f"  unavailable: {K.report.group}")
    else:
        carrier = K.base.carrier
        for rep in K.partition.reps:
            q = K.quer.mapping[ClassDouble(rep)]
            lines.append(
                f"  quer[{carrier.render(rep.top)};{carrier.render(rep.bottom)}]"
                f" = [{carrier.render(q.rep.top)};{carrier.render(q.rep.bottom)}]"
            )
    _emit(args, payload, lines)
    return 0 if K.report.ok else 1


def _resolve_target(name: str, bound: int):
    if name == "integers":
        return integers_group(max(200, 5 * bound)), lambda x: x
    if name.startswith("integers-mod-"):
        tail = name[len("integers-mod-"):]
        if tail.isdigit() and int(tail) >= 1:
            k = int(tail)
            return integers_mod_group(k), lambda x, _k=k: x % _k
    raise UsageError(f"unknown target {name!r} (builtin: integers, integers-mod-k)")


def cmd_universal_check(args) -> int:
    s, recipe = _resolve_structure(args.structure, args.bound)
    if s.arity != 2:
        raise UsageError("universal factorization applies to binary completions only")
    q = builtin_quiver("componentwise-2")
    K = build_completion(s, q, _decision(recipe, s),
                         quer_mode="componentwise",
                         canonical=recipe.canonical_double if recipe else None,
                         samples=args.samples, seed=args.seed)
    bound = args.bound if args.bound is not None else (recipe.default_limit if recipe else 40)
    target, phi = _resolve_target(args.target, bound)
    try:
        verdict = check_universal_factorization(K, target, phi,
                                                samples=args.samples, seed=args.seed)
    except NotAHomomorphism as exc:
        print(f"not a homomorphism: {exc}", file=sys.stderr)
        return 1
    payload = {
        "structure": args.structure,
        "target": args.target,
        "samples": verdict.samples,
        "ok": verdict.ok,
        "detail": verdict.detail,
    }
    _emit(args, payload, [f"universal factorization via {args.target}: {verdict}"])
    return 0 if verdict.ok else 1


def cmd_structures(args) -> int:
    for name in recipe_names():
        print(name)
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polygroth",
        description="polyadic semigroups and their n-ary group completions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, quiver_required=False):
        p.add_argument("--structure", required=True,
                       help="recipe name (nat0, neg3, odd3, res-a-b, matrix4) or table:PATH")
        p.add_argument("--bound", type=int, default=None,
                       help="value bound truncating rule-based carriers")
        p.add_argument("--output", choices=("json", "text"), default="json")
        if quiver_required is not None:
            p.add_argument("--quiver", required=quiver_required,
                           help="builtin quiver name or serialized 'n<-m intact=..' spec")

    p = sub.add_parser("assoc-check", help="check total associativity")
    common(p, quiver_required=False)
    p.add_argument("--mode", help="'exhaustive' or 'sampled:COUNT:SEED'")
    p.set_defaults(func=cmd_assoc_check)

    for name, fn in (("complete", cmd_complete), ("quer", cmd_quer)):
        p = sub.add_parser(name, help=f"{name} pipeline on the double classes")
        common(p, quiver_required=True)
        p.add_argument("--mode", help="doubles associativity mode override")
        p.add_argument("--quer-mode", default="auto",
                       choices=("auto", "componentwise", "post", "search"))
        p.add_argument("--samples", type=_count, default=200)
        p.add_argument("--seed", type=int, default=DEFAULT_SEED)
        p.set_defaults(func=fn)

    p = sub.add_parser("classes", help="list canonical class representatives")
    common(p, quiver_required=None)
    p.set_defaults(func=cmd_classes)

    p = sub.add_parser("universal-check", help="binary factorization through a target group")
    common(p, quiver_required=None)
    p.add_argument("--target", required=True, help="integers or integers-mod-k")
    p.add_argument("--samples", type=_count, default=100)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.set_defaults(func=cmd_universal_check)

    p = sub.add_parser("structures", help="list built-in structure recipes")
    p.add_argument("action", nargs="?", default="list", choices=("list",))
    p.set_defaults(func=cmd_structures)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except _CONFIG_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PolyadicError as exc:
        print(f"failed: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
