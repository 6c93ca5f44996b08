"""Command-line front end.

Subcommands mirror the library modules: ``group reduce|ball``,
``lie normal-form|dims|bruteforce``, ``assoc multiply|hilbert``,
``cohom cup|poincare``, ``poisson bracket|dims`` and ``verify``.

Exit codes: 0 success, 1 verification failures, 2 usage or parse errors,
3 resource-guard refusal.  Output is deterministic for a fixed argv and
seed: JSON objects are key-sorted, and every random suite is seeded.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from . import expressions
from .errors import ParseError, ResourceLimitError
from .groups import load_group


def _emit(args, payload, table_lines) -> None:
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in table_lines:
            print(line)


def _load_expr(args) -> object:
    if args.expr is not None and args.expr_file is not None:
        raise ParseError("give either --expr or --expr-file, not both")
    if args.expr is not None:
        text = args.expr
    elif args.expr_file is not None:
        if args.expr_file == "-":
            text = sys.stdin.read()
        else:
            try:
                with open(args.expr_file, "r", encoding="utf-8") as fh:
                    text = fh.read()
            except OSError as exc:
                raise ParseError(f"cannot read {args.expr_file!r}: {exc}") from exc
    else:
        raise ParseError("an expression is required (--expr or --expr-file)")
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON expression: {exc}") from exc


def _truncation_order(args, group) -> Optional[int]:
    """Group order for counting commands: |G| when finite, otherwise the
    size of the radius-r ball (explicit truncation required)."""
    if group.is_finite:
        return None  # library defaults to the exact order
    if args.radius is None:
        raise ParseError(
            "counting over an infinite group needs an explicit truncation: "
            "pass --radius R to count decorations in the radius-R ball"
        )
    return len(group.enumerate_ball(args.radius, max_size=args.max_basis))


def _format_terms(rows: List[dict]) -> List[str]:
    if not rows:
        return ["0"]
    return [json.dumps(row, sort_keys=True) for row in rows]


def nonnegative_int(text: str) -> int:
    """argparse type of ``--max-len``/``--max-deg``: an int >= 0."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ocs",
        description="Exact algebras of decorated configuration spaces: "
        "normal forms, dimension tables, verification suites.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--group",
        default="C2",
        help="builtin (trivial | C2 | C3 | lattice | surface:g) or JSON spec path",
    )
    common.add_argument("--format", choices=("json", "table"), default="table")
    common.add_argument(
        "--max-basis",
        type=int,
        default=200_000,
        help="cap on intermediate basis sizes (exit 3 when exceeded)",
    )
    expr_parent = argparse.ArgumentParser(add_help=False)
    expr_parent.add_argument("--expr", help="JSON expression string")
    expr_parent.add_argument("--expr-file", help="path to JSON expression, '-' = stdin")

    sub = parser.add_subparsers(dest="command", required=True)

    p_group = sub.add_parser("group", help="group backends")
    group_sub = p_group.add_subparsers(dest="subcommand", required=True)
    p = group_sub.add_parser("reduce", parents=[common], help="canonicalize a word")
    p.add_argument("--word", required=True, help="element literal for the backend")
    p = group_sub.add_parser("ball", parents=[common], help="enumerate a ball")
    p.add_argument("--radius", type=int, required=True)

    p_lie = sub.add_parser("lie", help="graded Lie algebra")
    lie_sub = p_lie.add_subparsers(dest="subcommand", required=True)
    p = lie_sub.add_parser("normal-form", parents=[common, expr_parent])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--q", type=int, default=1)
    p = lie_sub.add_parser("dims", parents=[common])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--max-len", type=nonnegative_int, required=True)
    p.add_argument("--radius", type=int, default=None)
    p = lie_sub.add_parser("bruteforce", parents=[common])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--max-len", type=nonnegative_int, required=True)

    p_assoc = sub.add_parser("assoc", help="enveloping / chord-diagram algebra")
    assoc_sub = p_assoc.add_subparsers(dest="subcommand", required=True)
    p = assoc_sub.add_parser("multiply", parents=[common, expr_parent])
    p.add_argument("--n", type=int, required=True)
    p = assoc_sub.add_parser("hilbert", parents=[common])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--max-deg", type=nonnegative_int, required=True)
    p.add_argument("--radius", type=int, default=None)

    p_cohom = sub.add_parser("cohom", help="configuration-space cohomology")
    cohom_sub = p_cohom.add_subparsers(dest="subcommand", required=True)
    p = cohom_sub.add_parser("cup", parents=[common, expr_parent])
    p.add_argument("--n", type=int, required=True)
    p = cohom_sub.add_parser("poincare", parents=[common])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--radius", type=int, default=None)

    p_poisson = sub.add_parser("poisson", help="graded Poisson / loop homology model")
    poisson_sub = p_poisson.add_subparsers(dest="subcommand", required=True)
    p = poisson_sub.add_parser("bracket", parents=[common, expr_parent])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--q", type=int, default=None)
    p = poisson_sub.add_parser("dims", parents=[common])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--max-deg", type=nonnegative_int, required=True)
    p.add_argument("--radius", type=int, default=None)

    p_verify = sub.add_parser("verify", parents=[common], help="run verification suites")
    p_verify.add_argument("suite", help="suite name or 'all'")
    p_verify.add_argument("--n", type=int, default=3)
    p_verify.add_argument("--q", type=int, default=1)
    p_verify.add_argument("--k", type=int, default=2)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--radius", type=int, default=1)
    p_verify.add_argument("--samples", type=int, default=40)
    return parser


def _cmd_group(args) -> int:
    group = load_group(args.group)
    if args.subcommand == "reduce":
        element = group.parse_element(args.word)
        _emit(args, {"element": str(element)}, [str(element)])
        return 0
    ball = group.enumerate_ball(args.radius, max_size=args.max_basis)
    names = [str(el) for el in ball]
    _emit(
        args,
        {"radius": args.radius, "size": len(ball), "elements": names},
        [f"size: {len(ball)}"] + names,
    )
    return 0


def _cmd_lie(args) -> int:
    from . import lie as lie_mod

    group = load_group(args.group)
    if args.subcommand == "normal-form":
        ctx = lie_mod.LieContext(group, args.n, args.q)
        element = expressions.eval_lie(_load_expr(args), ctx)
        rows = expressions.lie_jsonable(element)
        _emit(args, rows, _format_terms(rows))
        return 0
    if args.subcommand == "dims":
        ctx = lie_mod.LieContext(group, args.n)
        order = _truncation_order(args, group)
        dims = [
            lie_mod.graded_dimension(ctx, ell, group_order=order)
            for ell in range(1, args.max_len + 1)
        ]
        _emit(
            args,
            {"lengths": list(range(1, args.max_len + 1)), "dims": dims},
            ["len dim"] + [f"{ell:3d} {d}" for ell, d in enumerate(dims, start=1)],
        )
        return 0
    ctx = lie_mod.LieContext(group, args.n)
    brute = [
        lie_mod.bruteforce_dimension(ctx, ell, max_basis=args.max_basis)
        for ell in range(1, args.max_len + 1)
    ]
    counted = [
        lie_mod.graded_dimension(ctx, ell) for ell in range(1, args.max_len + 1)
    ]
    payload = {"bruteforce": brute, "necklace": counted, "agree": brute == counted}
    _emit(
        args,
        payload,
        ["len brute necklace"]
        + [f"{ell:3d} {b:5d} {c:8d}" for ell, (b, c) in enumerate(zip(brute, counted), 1)]
        + [f"agree: {payload['agree']}"],
    )
    return 0


def _cmd_assoc(args) -> int:
    from . import assoc as assoc_mod

    group = load_group(args.group)
    ctx = assoc_mod.AssocContext(group, args.n)
    if args.subcommand == "multiply":
        element = expressions.eval_assoc(_load_expr(args), ctx)
        rows = expressions.assoc_jsonable(element)
        _emit(args, rows, _format_terms(rows))
        return 0
    order = _truncation_order(args, group)
    coeffs = assoc_mod.hilbert_coefficients(ctx, args.max_deg, group_order=order)
    _emit(args, {"coefficients": coeffs}, [str(coeffs)])
    return 0


def _cmd_cohom(args) -> int:
    from . import cohomology as cohom_mod

    group = load_group(args.group)
    ctx = cohom_mod.CohomContext(group, args.n)
    if args.subcommand == "cup":
        element = expressions.eval_cohom(_load_expr(args), ctx)
        rows = expressions.cohom_jsonable(element)
        _emit(args, rows, _format_terms(rows))
        return 0
    order = _truncation_order(args, group)
    coeffs = cohom_mod.poincare_polynomial(ctx, group_order=order)
    _emit(args, {"coefficients": coeffs}, [str(coeffs)])
    return 0


def _cmd_poisson(args) -> int:
    from . import poisson as poisson_mod

    group = load_group(args.group)
    if args.subcommand == "bracket":
        doc = _load_expr(args)
        node = doc
        k, q = args.k, args.q
        if isinstance(doc, dict) and "grading" in doc:
            if set(doc) != {"grading", "expr"}:
                raise ParseError('grading envelope needs fields {"grading", "expr"}')
            header = doc["grading"]
            if not isinstance(header, dict) or any(
                type(header.get(key)) is not int for key in ("k", "q")
            ):
                raise ParseError('grading header needs integer fields "k" and "q"')
            for key, flag in (("k", args.k), ("q", args.q)):
                if flag is not None and flag != header[key]:
                    raise ParseError(
                        f"--{key} {flag} conflicts with the grading header's {key}={header[key]}"
                    )
            k, q = header["k"], header["q"]
            node = doc["expr"]
        if k is None or q is None:
            raise ParseError("a grading is required: pass --k/--q or a grading header")
        pctx = poisson_mod.PoissonContext(group, args.n, poisson_mod.PoissonGrading(k, q))
        element = expressions.eval_poisson(node, pctx)
        rows = expressions.poisson_jsonable(element)
        _emit(args, rows, _format_terms(rows))
        return 0
    pctx = poisson_mod.PoissonContext(
        group, args.n, poisson_mod.PoissonGrading(args.k, args.q)
    )
    order = _truncation_order(args, group)
    dims = [
        poisson_mod.basis_dimension(pctx, d, group_order=order)
        for d in range(0, args.max_deg + 1)
    ]
    _emit(
        args,
        {"degrees": list(range(0, args.max_deg + 1)), "dims": dims},
        ["deg dim"] + [f"{d:3d} {v}" for d, v in enumerate(dims)],
    )
    return 0


def _cmd_verify(args) -> int:
    from . import verify as verify_mod

    cfg = verify_mod.VerifyConfig(
        group=args.group,
        n=args.n,
        q=args.q,
        k=args.k,
        seed=args.seed,
        radius=args.radius,
        samples=args.samples,
        max_basis=args.max_basis,
    )
    report = verify_mod.run_suite(args.suite, cfg)
    print(json.dumps(report, sort_keys=True))
    return 0 if not report["failures"] else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.command == "group":
            return _cmd_group(args)
        if args.command == "lie":
            return _cmd_lie(args)
        if args.command == "assoc":
            return _cmd_assoc(args)
        if args.command == "cohom":
            return _cmd_cohom(args)
        if args.command == "poisson":
            return _cmd_poisson(args)
        return _cmd_verify(args)
    except ResourceLimitError as exc:
        print(f"ocs: resource guard: {exc}", file=sys.stderr)
        return 3
    except (ParseError, ValueError) as exc:
        print(f"ocs: error: {exc}", file=sys.stderr)
        return 2


def main_entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    main_entry()
