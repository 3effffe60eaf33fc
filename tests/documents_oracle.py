"""The document routes that bracelab.documents replaced, kept as oracles.

The three serializers lay a payload out with json.dumps(payload, indent=2),
and oracle_get_rows checks a table entry by entry.  tests/test_documents.py
checks that the layout writer gives the same bytes and that the set-based
row test gives the same rows or the same message.
"""

import json

from bracelab.errors import DocumentError


def oracle_serialize_brace(doc) -> str:
    payload = {
        "type": "brace",
        "order": doc.order,
        "invariant_factors": list(doc.invariant_factors),
        "operation": doc.operation,
        "table": [list(row) for row in doc.table],
    }
    return json.dumps(payload, indent=2) + "\n"


def oracle_serialize_solution(doc) -> str:
    payload = {
        "type": "solution",
        "size": doc.size,
        "sigma": [list(row) for row in doc.sigma],
        "tau": [list(row) for row in doc.tau],
    }
    return json.dumps(payload, indent=2) + "\n"


def oracle_serialize_action(doc) -> str:
    payload = {
        "type": "action",
        "acting_order": doc.acting_order,
        "target_order": doc.target_order,
        "maps": [list(row) for row in doc.maps],
    }
    return json.dumps(payload, indent=2) + "\n"


def oracle_get_rows(payload: dict, field: str, rows: int, cols: int, limit: int):
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
