"""JSON document formats for braces, solutions and actions.

Serialization is canonical: fixed key order, two-space indent, trailing
newline.  parse(serialize(x)) returns an equal document and serialize is
injective on canonical documents, which makes golden-file tests exact.

One layout writer, _document, emits every document: the text of
json.dumps(payload, indent=2) + "\n".  A table of byte values is laid out
as byte planes, a fixed number of C passes whatever its size (_table);
any other table, and every 1-D list, by str.join over int.__repr__ of
each entry.  Keys and strings still go through json.dumps, so escaping
is unchanged; an entry is written as its integer value, so a bool entry
comes out as 0 or 1, never as false or true.

Parsing decides each table by one test in C loops: row types, row
lengths, the type of every entry, then the range of the entries as one
translate of the joined byte rows.  A table whose limit passes
MAX_TABLE_ORDER is refused by check_table_order once its shape passes.
Only a table that the test rejects is scanned entry by entry, to name the
first bad row or entry.  A message that quotes an integer from the
document names one past 64 bits by its bit length, a long value by type.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import accumulate, chain

from .abelian import _IDENTITY, check_table_order, make_group, quote, square_byte_rows
from .brace import LeftBrace, validate_brace
from .errors import DocumentError, InternalCheckError, ResourceLimitError
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
            return validate_brace(group, _bytes_or_given(self.table))
        return validate_brace(group, _circle_rows(group, self.table))


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
        validate_solution(self.size, _bytes_or_given(self.sigma), _bytes_or_given(self.tau))
        # the solution keeps the document's rows, not a second copy of each table
        sigma, tau = (tuple(map(tuple, rows)) for rows in (self.sigma, self.tau))
        return SetTheoreticSolution(self.size, sigma, tau)


def _bytes_or_given(rows):
    """Each row as bytes for a validator, or as given where bytes() refuses
    an entry (a hand-built document's), so the validator names it.  Lazy,
    so the validator refuses an order above MAX_TABLE_ORDER first."""
    for row in rows:
        try:
            yield bytes(row)
        except (TypeError, ValueError):
            yield row


def _circle_rows(group, lambdas) -> list[bytes]:
    """The circle rows a o b = a + lambda_a(b) of a lambda table, whose
    entries are checked to be in range first."""
    add = group.add_lookups()
    rows = square_byte_rows(lambdas, group.order, "lambda table")
    return [lam.translate(add[a]) for a, lam in enumerate(rows)]


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
        raise DocumentError(f"field 'type' must be {kind!r}, got {quote(value)}")


def _get_int(payload: dict, field: str, minimum: int = 0) -> int:
    value = payload.get(field)
    if not isinstance(value, int) or isinstance(value, bool) or value < minimum:
        raise DocumentError(
            f"field {field!r} must be an integer >= {minimum}, got {quote(value)}"
        )
    return value


def _get_rows(payload: dict, field: str, rows: int, cols: int, limit: int) -> tuple[tuple[int, ...], ...]:
    """The field as a tuple of rows, each of cols ints in range(limit).

    rows and cols are >= 1.  The set test below decides; the scan after it
    runs only to name the first bad row or entry.
    """
    value = payload.get(field)
    if not isinstance(value, list) or len(value) != rows:
        raise DocumentError(f"field {field!r} must be a list of {quote(rows)} rows")
    if set(map(type, value)) == {list} and set(map(len, value)) == {cols}:
        check_table_order(limit)
        # entry types are collected over every entry, not over a set of the
        # entries: True == 1 hashes alike, so a dedup would hide a bool
        if set(map(type, chain.from_iterable(value))) == {int}:
            try:
                flat = b"".join(map(bytes, value))
            except ValueError:  # an entry outside range(256)
                flat = None
            # deleting every value below limit leaves the out-of-range entries
            if flat is not None and not flat.translate(None, _IDENTITY[:limit]):
                return tuple(map(tuple, value))
    for i, row in enumerate(value):
        if not isinstance(row, list) or len(row) != cols:
            raise DocumentError(
                f"field {field!r} row {i} must be a list of {quote(cols)} entries"
            )
        for v in row:
            if not isinstance(v, int) or isinstance(v, bool) or not 0 <= v < limit:
                raise DocumentError(
                    f"field {field!r} row {i} has out-of-range entry {quote(v)}"
                )
    raise InternalCheckError(
        f"field {field!r} fails the row test, but every entry passes"
    )


def _document(payload: dict) -> str:
    """json.dumps(payload, indent=2) + "\n" for a payload of str, int and
    sequences of ints or of int rows, with every int written by int.__repr__."""
    fields = []
    for key, value in payload.items():
        if isinstance(value, str):
            text = json.dumps(value)
        elif isinstance(value, int):
            text = int.__repr__(value)
        elif value and not isinstance(value[0], int):
            text = _table(value) or _array(
                (_array(map(int.__repr__, row), "    ") for row in value), "  "
            )
        else:
            text = _array(map(int.__repr__, value), "  ")
        fields.append(f"{json.dumps(key)}: {text}")
    return _array(fields, "", "{}") + "\n"


# the digit planes of a byte value: hundreds, tens and ones as ASCII
# digits, a leading zero digit as NUL, which _table deletes
_HUNDREDS, _TENS, _ONES = (
    bytes(48 + v // 100 if v >= 100 else 0 for v in range(256)),
    bytes(48 + v // 10 % 10 if v >= 10 else 0 for v in range(256)),
    bytes(48 + v % 10 for v in range(256)),
)
_SLOT = b"\n      \0\0\0,"  # one entry of a table row: 11 bytes


def _table(rows) -> str | None:
    """_array of _array of int.__repr__ for each row, at a field's indent,
    if every row is a nonempty sequence that bytes() takes entry for entry;
    else None.

    Each entry gets an 11-byte slot of _SLOT, its three digit planes placed
    by strided slice assignment; the comma closing a row is marked by "]",
    and the one closing the table by NUL.  Deleting NUL drops the leading
    zeros, and one replace turns each mark into the break between rows.
    """
    # a row not a sequence, or an entry not an int in range(256), raises
    try:
        lengths = list(map(len, rows))
        planes = list(map(bytes, rows))
    except (TypeError, ValueError):
        return None
    # a buffer such as array("H") gives bytes() its memory, not its entries
    if list(map(len, planes)) != lengths or 0 in lengths:
        return None
    flat = b"".join(planes)
    buf = bytearray(_SLOT * len(flat))
    buf[7::11] = flat.translate(_HUNDREDS)
    buf[8::11] = flat.translate(_TENS)
    buf[9::11] = flat.translate(_ONES)
    for end in accumulate(lengths):
        buf[11 * end - 1] = 93  # "]"
    buf[-1] = 0
    body = buf.translate(None, b"\0").replace(b"]", b"\n    ],\n    [")
    return f"[\n    [{body.decode()}\n    ]\n  ]"


def _array(items, indent: str, brackets: str = "[]") -> str:
    """The items one to a line, two spaces in from indent, as json.dumps
    with indent=2 lays out a list (or an object); bare brackets if empty."""
    inner = indent + "  "
    body = (",\n" + inner).join(items)
    if not body:
        return brackets
    return f"{brackets[0]}\n{inner}{body}\n{indent}{brackets[1]}"


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
            product = f"more than {quote(order)}"
        raise DocumentError(
            f"field 'order' is {quote(order)} but the invariant factors"
            f" multiply to {product}"
        )
    operation = payload.get("operation")
    if operation not in BRACE_OPERATIONS:
        raise DocumentError(
            f"field 'operation' must be one of {BRACE_OPERATIONS}, got {quote(operation)}"
        )
    table = _get_rows(payload, "table", order, order, order)
    return BraceDocument(order, tuple(factors), operation, table)


def serialize_brace_document(doc: BraceDocument) -> str:
    payload = {
        "type": "brace",
        "order": doc.order,
        "invariant_factors": doc.invariant_factors,
        "operation": doc.operation,
        "table": doc.table,
    }
    return _document(payload)


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
        "sigma": doc.sigma,
        "tau": doc.tau,
    }
    return _document(payload)


def parse_action_document(text: str) -> ActionDocument:
    payload = _load(text)
    _expect_type(payload, "action")
    acting_order = _get_int(payload, "acting_order", minimum=1)
    target_order = _get_int(payload, "target_order", minimum=1)
    maps = _get_rows(payload, "maps", acting_order, target_order, target_order)
    for h, row in enumerate(maps):
        if len(set(row)) != target_order:
            raise DocumentError(f"field 'maps' row {h} is not a permutation")
    return ActionDocument(acting_order, target_order, maps)


def serialize_action_document(doc: ActionDocument) -> str:
    payload = {
        "type": "action",
        "acting_order": doc.acting_order,
        "target_order": doc.target_order,
        "maps": doc.maps,
    }
    return _document(payload)
