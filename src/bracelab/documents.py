"""JSON document formats for braces, solutions and actions.

Serialization is canonical: fixed key order, two-space indent, trailing
newline.  parse(serialize(x)) returns an equal document and serialize is
injective on canonical documents, which makes golden-file tests exact.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .abelian import is_permutation, make_group
from .brace import LeftBrace, validate_brace
from .errors import DocumentError, ResourceLimitError
from .solutions import SetTheoreticSolution, validate_solution

BRACE_OPERATIONS = ("circle_table", "lambda_table")


@dataclass(frozen=True)
class BraceDocument:
    order: int
    invariant_factors: tuple[int, ...]
    operation: str
    table: tuple[tuple[int, ...], ...]

    @classmethod
    def from_brace(cls, brace: LeftBrace, operation: str = "circle_table") -> "BraceDocument":
        if operation not in BRACE_OPERATIONS:
            raise DocumentError(f"unknown operation kind {operation!r}")
        brace = brace.canonical_form()
        if operation == "circle_table":
            table = brace.circle_table
        else:
            table = tuple(brace.lambda_row(a) for a in range(brace.order))
        return cls(
            order=brace.order,
            invariant_factors=brace.additive.factors,
            operation=operation,
            table=table,
        )

    def to_brace(self, max_order: int | None = None) -> LeftBrace:
        """The validated brace; a document above max_order is refused first."""
        if max_order is not None and self.order > max_order:
            raise ResourceLimitError(
                f"brace order {self.order} above configured bound {max_order}"
            )
        group = make_group(self.invariant_factors)
        if self.operation == "circle_table":
            rows = self.table
        else:
            add = group.add_rows()
            rows = tuple(
                tuple(add[a][v] for v in row) for a, row in enumerate(self.table)
            )
        return validate_brace(group, rows)


@dataclass(frozen=True)
class SolutionDocument:
    size: int
    sigma: tuple[tuple[int, ...], ...]
    tau: tuple[tuple[int, ...], ...]

    @classmethod
    def from_solution(cls, solution: SetTheoreticSolution) -> "SolutionDocument":
        return cls(size=solution.size, sigma=solution.sigma, tau=solution.tau)

    def to_solution(self, max_size: int | None = None) -> SetTheoreticSolution:
        """The validated solution; a document above max_size is refused first."""
        if max_size is not None and self.size > max_size:
            raise ResourceLimitError(
                f"solution size {self.size} above configured bound {max_size}"
            )
        return validate_solution(self.size, self.sigma, self.tau)


@dataclass(frozen=True)
class ActionDocument:
    acting_order: int
    target_order: int
    maps: tuple[tuple[int, ...], ...]


def _load(text: str) -> dict:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError(
            f"not valid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except RecursionError as exc:
        raise DocumentError("not valid JSON: nested too deeply") from exc
    except ValueError as exc:  # an integer literal past the digit limit
        raise DocumentError(f"not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise DocumentError("top level must be an object")
    return payload


def _expect_type(payload: dict, kind: str) -> None:
    value = payload.get("type")
    if value != kind:
        raise DocumentError(f"field 'type' must be {kind!r}, got {value!r}")


def _get_int(payload: dict, field: str, minimum: int = 0) -> int:
    value = payload.get(field)
    if not isinstance(value, int) or isinstance(value, bool) or value < minimum:
        raise DocumentError(
            f"field {field!r} must be an integer >= {minimum}, got {value!r}"
        )
    return value


def _get_rows(payload: dict, field: str, rows: int, cols: int, limit: int) -> tuple[tuple[int, ...], ...]:
    value = payload.get(field)
    if not isinstance(value, list) or len(value) != rows:
        raise DocumentError(f"field {field!r} must be a list of {rows} rows")
    out = []
    for i, row in enumerate(value):
        if not isinstance(row, list) or len(row) != cols:
            raise DocumentError(
                f"field {field!r} row {i} must be a list of {cols} entries"
            )
        for v in row:
            if not isinstance(v, int) or isinstance(v, bool) or not 0 <= v < limit:
                raise DocumentError(
                    f"field {field!r} row {i} has out-of-range entry {v!r}"
                )
        out.append(tuple(row))
    return tuple(out)


def parse_brace_document(text: str) -> BraceDocument:
    payload = _load(text)
    _expect_type(payload, "brace")
    order = _get_int(payload, "order", minimum=1)
    factors = payload.get("invariant_factors")
    if not isinstance(factors, list) or any(
        not isinstance(d, int) or isinstance(d, bool) or d < 2 for d in factors
    ):
        raise DocumentError(
            "field 'invariant_factors' must be a list of integers >= 2"
        )
    product = 1
    for count, d in enumerate(factors, 1):
        product *= d
        if product > order:
            break
    if product != order:
        # the loop stops once the product passes the order, so past it the
        # product is named only when it is whole and fits in 64 bits
        if product > order and (count < len(factors) or product.bit_length() > 64):
            product = f"more than {order}"
        raise DocumentError(
            f"field 'order' is {order} but the invariant factors multiply to {product}"
        )
    operation = payload.get("operation")
    if operation not in BRACE_OPERATIONS:
        raise DocumentError(
            f"field 'operation' must be one of {BRACE_OPERATIONS}, got {operation!r}"
        )
    table = _get_rows(payload, "table", order, order, order)
    return BraceDocument(order, tuple(factors), operation, table)


def serialize_brace_document(doc: BraceDocument) -> str:
    payload = {
        "type": "brace",
        "order": doc.order,
        "invariant_factors": list(doc.invariant_factors),
        "operation": doc.operation,
        "table": [list(row) for row in doc.table],
    }
    return json.dumps(payload, indent=2) + "\n"


def parse_solution_document(text: str) -> SolutionDocument:
    payload = _load(text)
    _expect_type(payload, "solution")
    size = _get_int(payload, "size", minimum=1)
    sigma = _get_rows(payload, "sigma", size, size, size)
    tau = _get_rows(payload, "tau", size, size, size)
    return SolutionDocument(size, sigma, tau)


def serialize_solution_document(doc: SolutionDocument) -> str:
    payload = {
        "type": "solution",
        "size": doc.size,
        "sigma": [list(row) for row in doc.sigma],
        "tau": [list(row) for row in doc.tau],
    }
    return json.dumps(payload, indent=2) + "\n"


def parse_action_document(text: str) -> ActionDocument:
    payload = _load(text)
    _expect_type(payload, "action")
    acting_order = _get_int(payload, "acting_order", minimum=1)
    target_order = _get_int(payload, "target_order", minimum=1)
    maps = _get_rows(payload, "maps", acting_order, target_order, target_order)
    for h, row in enumerate(maps):
        if not is_permutation(row, target_order):
            raise DocumentError(f"field 'maps' row {h} is not a permutation")
    return ActionDocument(acting_order, target_order, maps)


def serialize_action_document(doc: ActionDocument) -> str:
    payload = {
        "type": "action",
        "acting_order": doc.acting_order,
        "target_order": doc.target_order,
        "maps": [list(row) for row in doc.maps],
    }
    return json.dumps(payload, indent=2) + "\n"
