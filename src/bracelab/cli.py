"""Command line front end.

Exit codes: 0 success or all checks pass, 1 a validation or theorem check
failed, 2 usage or document parse error, 3 resource limit exceeded, 4 an
internal consistency check failed.
Documents are printed to stdout so commands can be piped into files;
human-facing summaries for those commands go to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .abelian import check_table_order, quote
from .brace import LeftBrace
from .census import check_census_order, enumerate_braces
from .checks import FAIL, HYPOTHESIS_NOT_MET, PASS, run_census_checks
from .documents import (
    BraceDocument,
    SolutionDocument,
    parse_action_document,
    parse_brace_document,
    parse_solution_document,
    serialize_brace_document,
    serialize_solution_document,
)
from .errors import (
    ActionError,
    BraceValidationError,
    DocumentError,
    InternalCheckError,
    ResourceLimitError,
    SolutionValidationError,
    WitnessedError,
)
from .products import DEFAULT_BRACE_BOUND, BraceAction, semidirect, wreath
from .solutions import (
    SetTheoreticSolution,
    from_brace,
    permutation_group_order,
    retract_solution,
    retraction_tower_sizes,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3
EXIT_INTERNAL = 4

ENV_MAX_ORDER = "BRACELAB_MAX_ORDER"


def _env_bound(default: int | None) -> int | None:
    raw = os.environ.get(ENV_MAX_ORDER)
    if raw is None:
        return default
    try:
        value = int(raw)
    except ValueError:
        raise DocumentError(f"{ENV_MAX_ORDER} must be an integer, got {quote(raw)}")
    if value < 1:
        raise DocumentError(f"{ENV_MAX_ORDER} must be positive, got {value}")
    return value


def _read_text(path: str) -> str:
    return Path(path).read_text(encoding="utf-8")


def _load_brace(path: str) -> LeftBrace:
    doc = parse_brace_document(_read_text(path))
    return doc.to_brace(max_order=_env_bound(None))


def _load_solution(path: str) -> SetTheoreticSolution:
    doc = parse_solution_document(_read_text(path))
    return doc.to_solution(max_size=_env_bound(None))


def _print_document(text: str) -> None:
    sys.stdout.write(text)


def cmd_validate(args: argparse.Namespace) -> int:
    brace = _load_brace(args.file)
    factors = list(brace.additive.factors)
    print(f"valid brace of order {brace.order}, additive type {factors}")
    return EXIT_OK


def _analysis(brace: LeftBrace) -> dict:
    traits = brace.classify()
    return {
        "order": brace.order,
        "invariant_factors": list(brace.additive.factors),
        "socle_size": brace.socle().size,
        "multipermutation_level": brace.multipermutation_level(),
        "radical_chain_index": brace.radical_chain_index(),
        "sylow_orders": [c.prime ** c.exponent for c in brace.sylow_components()],
        "two_sided": traits.is_two_sided,
        "minus_rule": traits.minus_rule,
        "left_nil_index": traits.left_nil_index,
        "adjoint_nilpotent": traits.adjoint_nilpotent,
        "ring_nilpotent": traits.ring_nilpotent,
    }


def cmd_analyze(args: argparse.Namespace) -> int:
    brace = _load_brace(args.file)
    info = _analysis(brace)
    if args.json:
        print(json.dumps(info, indent=2))
        return EXIT_OK
    level = info["multipermutation_level"]
    chain = info["radical_chain_index"]
    print(f"order: {info['order']}")
    print(f"invariant factors: {info['invariant_factors']}")
    print(f"socle size: {info['socle_size']}")
    print(f"multipermutation level: {'not finite' if level is None else level}")
    print(f"radical chain index: {'not finite' if chain is None else chain}")
    print(f"sylow orders: {info['sylow_orders']}")
    print(f"two-sided: {'yes' if info['two_sided'] else 'no'}")
    print(f"minus rule: {'yes' if info['minus_rule'] else 'no'}")
    nil = info["left_nil_index"]
    print(f"left nilpotency index: {'none' if nil is None else nil}")
    print(f"adjoint group nilpotent: {'yes' if info['adjoint_nilpotent'] else 'no'}")
    ring = info["ring_nilpotent"]
    print(
        "ring nilpotent: "
        + ("n/a (one-sided)" if ring is None else "yes" if ring else "no")
    )
    return EXIT_OK


def cmd_enumerate(args: argparse.Namespace) -> int:
    census = enumerate_braces(args.order, max_order=_env_bound(None))
    count = len(census)
    print(f"order {args.order}: {count} {'class' if count == 1 else 'classes'}")
    if args.out is not None:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        for idx, entry in enumerate(census.entries):
            doc = BraceDocument.from_brace(entry.brace)
            name = f"brace_{args.order}_{idx:03d}.json"
            (out_dir / name).write_text(serialize_brace_document(doc), encoding="utf-8")
        print(f"wrote {count} documents to {out_dir}")
    return EXIT_OK


def cmd_solution_from_brace(args: argparse.Namespace) -> int:
    brace = _load_brace(args.file)
    solution = from_brace(brace)
    _print_document(serialize_solution_document(SolutionDocument.from_solution(solution)))
    return EXIT_OK


def cmd_solution_check(args: argparse.Namespace) -> int:
    solution = _load_solution(args.file)
    group_order = permutation_group_order(solution)
    print(
        f"valid involutive solution of size {solution.size},"
        f" permutation group order {group_order}"
    )
    return EXIT_OK


def cmd_solution_retract(args: argparse.Namespace) -> int:
    solution = _load_solution(args.file)
    if args.tower:
        sizes = retraction_tower_sizes(solution)
        print(" -> ".join(str(s) for s in sizes))
        if sizes[-1] == 1:
            print(f"multipermutation level: {len(sizes) - 1}")
        else:
            print(f"multipermutation level: none (tower stabilizes at size {sizes[-1]})")
        return EXIT_OK
    retracted = retract_solution(solution)
    _print_document(
        serialize_solution_document(SolutionDocument.from_solution(retracted))
    )
    return EXIT_OK


def cmd_product_semidirect(args: argparse.Namespace) -> int:
    bound = _env_bound(DEFAULT_BRACE_BOUND)
    target = _load_brace(args.target)
    acting = _load_brace(args.acting)
    action = None  # the trivial action
    if args.action is not None:
        action_doc = parse_action_document(_read_text(args.action))
        if action_doc.acting_order != acting.order or action_doc.target_order != target.order:
            raise DocumentError(
                f"action file is for orders {action_doc.acting_order} acting on"
                f" {action_doc.target_order}, but the brace files have orders"
                f" {acting.order} acting on {target.order}"
            )
        # semidirect validates the maps, once
        action = BraceAction(acting, target, action_doc.maps)
    product = semidirect(target, acting, action, max_order=bound)
    _print_document(serialize_brace_document(BraceDocument.from_brace(product)))
    print(f"semidirect product of order {product.order}", file=sys.stderr)
    return EXIT_OK


def cmd_product_wreath(args: argparse.Namespace) -> int:
    bound = _env_bound(DEFAULT_BRACE_BOUND)
    base = _load_brace(args.base)
    top = _load_brace(args.top)
    product = wreath(base, top, max_order=bound)
    _print_document(serialize_brace_document(BraceDocument.from_brace(product)))
    print(f"wreath product of order {product.order}", file=sys.stderr)
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    if args.order_max < 1:
        raise DocumentError(f"--order-max must be positive, got {args.order_max}")
    check_table_order(args.order_max)
    top = min(args.order_max, _env_bound(args.order_max))
    orders, refused = [], []
    for order in range(1, top + 1):
        try:
            check_census_order(order)
        except ResourceLimitError as exc:
            print(f"resource limit: order {order}: {exc}", file=sys.stderr)
            refused.append(order)
        else:
            orders.append(order)
    reports = run_census_checks(orders)
    counts = {PASS: 0, FAIL: 0, HYPOTHESIS_NOT_MET: 0}
    for report in reports:
        counts[report.verdict] += 1
        line = f"{report.verdict:18s} {report.check:24s} {report.subject}"
        if report.verdict == FAIL:
            line += f"  witness={report.witness}"
            if report.notes:
                line += "  " + "; ".join(report.notes)
        print(line)
    covered = f"1..{top}" + (" except " + ",".join(map(str, refused)) if refused else "")
    print(
        f"orders {covered}: {len(reports)} checks,"
        f" {counts[PASS]} pass, {counts[FAIL]} fail,"
        f" {counts[HYPOTHESIS_NOT_MET]} hypothesis not met"
    )
    return EXIT_CHECK_FAILED if counts[FAIL] else EXIT_RESOURCE if refused else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bracelab",
        description="Finite left braces and involutive Yang-Baxter solutions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a brace file against the brace laws")
    p.add_argument("file")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("analyze", help="report invariants of a brace file")
    p.add_argument("file")
    p.add_argument("--json", action="store_true", help="emit a JSON object")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("enumerate", help="census of braces of one order")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--out", help="directory for one JSON document per class")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("solution", help="Yang-Baxter solution commands")
    ssub = p.add_subparsers(dest="solution_command", required=True)
    q = ssub.add_parser("from-brace", help="the solution attached to a brace file")
    q.add_argument("file")
    q.set_defaults(func=cmd_solution_from_brace)
    q = ssub.add_parser("check", help="validate a solution file")
    q.add_argument("file")
    q.set_defaults(func=cmd_solution_check)
    q = ssub.add_parser("retract", help="retract a solution file once")
    q.add_argument("file")
    q.add_argument("--tower", action="store_true", help="print the full size tower")
    q.set_defaults(func=cmd_solution_retract)

    p = sub.add_parser("product", help="build product braces")
    psub = p.add_subparsers(dest="product_command", required=True)
    q = psub.add_parser("semidirect", help="semidirect product of two brace files")
    q.add_argument("target")
    q.add_argument("acting")
    q.add_argument("--action", help="action file; omitted means the trivial action")
    q.set_defaults(func=cmd_product_semidirect)
    q = psub.add_parser("wreath", help="wreath product of two brace files")
    q.add_argument("base")
    q.add_argument("top")
    q.set_defaults(func=cmd_product_wreath)

    p = sub.add_parser("verify", help="run the theorem suite over the census")
    p.add_argument("--order-max", type=int, required=True)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    try:
        return args.func(args)
    except DocumentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (BraceValidationError, SolutionValidationError, ActionError) as exc:
        detail = f"check failed: {exc}"
        if isinstance(exc, WitnessedError) and exc.witness:
            detail += f" [witness {exc.witness}]"
        print(detail, file=sys.stderr)
        return EXIT_CHECK_FAILED
    except InternalCheckError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
