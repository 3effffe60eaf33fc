"""Involutive non-degenerate set-theoretic solutions as sigma/tau tables.

A solution on X = {0..n-1} is the map r(x, y) = (sigma[x][y], tau[y][x]).
Both tables are indexed by the acting element first, so tau[y] is the
permutation applied to x when y is the right component.

validate_solution decides the braid law through the cycle-set identity
sigma_x sigma_{x.y} = sigma_y sigma_{y.x}, x.y = sigma_x^-1(y): each
composite of two classes of equal sigma rows gets an id, and the law
holds exactly when the table of ids of the left sides is symmetric.
"""

from __future__ import annotations

from dataclasses import dataclass

from .abelian import (
    _IDENTITY, MAX_TABLE_ORDER, _byte_rows, check_table_order, closure, columns, inverse_row,
    permutation_rows, quote, quotient_rows,
)
from .brace import LeftBrace
from .errors import (
    BraidRelationError,
    InternalCheckError,
    InvalidPresentationError,
    InvolutivityError,
    NonDegeneracyError,
    SolutionValidationError,
)


@dataclass(frozen=True)
class SetTheoreticSolution:
    """Construct through validate_solution: it keeps the byte rows it checked."""

    size: int
    sigma: tuple[bytes, ...]
    tau: tuple[bytes, ...]

    def r(self, x: int, y: int) -> tuple[int, int]:
        return self.sigma[x][y], self.tau[y][x]


def _apply_r12(sol: SetTheoreticSolution, t: tuple[int, int, int]) -> tuple[int, int, int]:
    a, b = sol.r(t[0], t[1])
    return a, b, t[2]


def _apply_r23(sol: SetTheoreticSolution, t: tuple[int, int, int]) -> tuple[int, int, int]:
    b, c = sol.r(t[1], t[2])
    return t[0], b, c


def validate_solution(size: int, sigma, tau) -> SetTheoreticSolution:
    """Check non-degeneracy, involutivity and the braid law exactly.

    A size above MAX_TABLE_ORDER is refused with ResourceLimitError first.
    Every table is checked on byte rows, and the braid law is decided
    through the cycle-set identity, as a symmetric table of the ids of
    class composites (_cycle_set_failure).  Only a table that a row check
    rejects, entries out of range or not ints included, is scanned entry by
    entry or triple by triple, and that scan names the witness.
    """
    check_table_order(size)
    sigma = [row if isinstance(row, bytes) else tuple(row) for row in sigma]
    tau = [row if isinstance(row, bytes) else tuple(row) for row in tau]
    if len(sigma) != size or len(tau) != size:
        raise InvalidPresentationError(f"tables must have {size} rows")
    sigma_rows, tau_rows = _byte_rows(sigma, size), _byte_rows(tau, size)
    sol = SetTheoreticSolution(size, sigma, tau)
    inverses = [inverse_row(row) for row in sigma_rows or ()]
    if None in (sigma_rows, tau_rows) or not _rows_involutive(sigma_rows, tau_rows, inverses):
        _scan_entries(sol)
        raise InternalCheckError(
            "row checks reject the tables, but every entry passes"
        )

    failure = _cycle_set_failure(sigma_rows, inverses)
    if failure is not None:
        _scan_braid_relation(sol)
        raise InternalCheckError(
            f"cycle-set identity fails {failure}, but every triple braids"
        )
    return SetTheoreticSolution(size, tuple(sigma_rows), tuple(tau_rows))


def _rows_involutive(sigma_rows: list[bytes], tau_rows: list[bytes], inverses: list[bytes]) -> bool:
    """Whether every row is a bijection and tau is _involutive_tau.  Rows of
    entries below their count, as _byte_rows takes them, are bijections
    when deleting their entries from the identity leaves nothing."""
    ident = _IDENTITY[: len(sigma_rows)]
    if any(ident.translate(None, row) for row in sigma_rows + tau_rows):
        return False
    return _involutive_tau(sigma_rows, inverses) == tau_rows


def _involutive_tau(sigma_rows, inverses) -> list[bytes]:
    """The tau rows with r o r = id, given sigma and its inverse rows.

    With u = sigma_x(y) and v = tau_y(x), r(u, v) = (x, y) for every pair
    exactly when v = sigma_u^-1(x) for every pair: that equation, taken at
    the pair (u, v), also gives tau_v(u) = sigma_x^-1(u) = y.  So column x
    of tau is row x of sigma looked up in column x of the inverse table.
    """
    pad = bytes(MAX_TABLE_ORDER - len(sigma_rows))
    return columns([row.translate(col + pad) for row, col in zip(sigma_rows, columns(inverses))])


def _row_classes(rows: list[bytes]) -> tuple[bytes, bytes]:
    """Each row's class and each class's first row, classes of equal rows
    numbered in order of first appearance."""
    class_of_row = {row: i for i, row in enumerate(dict.fromkeys(rows))}
    cls = bytes(map(class_of_row.__getitem__, rows))
    return cls, bytes(map(cls.index, range(len(class_of_row))))


def _scan_entries(sol: SetTheoreticSolution) -> None:
    """Range, non-degeneracy and involutivity entry by entry: the witnesses."""
    size = sol.size
    for name, rows in (("sigma", sol.sigma), ("tau", sol.tau)):
        for x, row in enumerate(rows):
            if len(row) != size:
                raise InvalidPresentationError(
                    f"{name} row {x} must have {size} entries"
                )
            for v in row:
                if not isinstance(v, int) or not 0 <= v < size:
                    raise InvalidPresentationError(
                        f"{name} row {x} has out-of-range entry {quote(v)}"
                    )

    for name, rows in (("sigma", sol.sigma), ("tau", sol.tau)):
        for x, row in enumerate(rows):
            if permutation_rows([row], size) is None:
                raise NonDegeneracyError(
                    f"{name} map of {x} is not a bijection", witness=(x,)
                )

    for x in range(size):
        for y in range(size):
            u, v = sol.r(x, y)
            if sol.r(u, v) != (x, y):
                raise InvolutivityError(
                    f"r is not involutive at ({x}, {y})", witness=(x, y)
                )


def _cycle_set_failure(rows: list[bytes], inverses: list[bytes]) -> str | None:
    """The first pair x < y, by x then y, with sigma_x sigma_{x.y} !=
    sigma_y sigma_{y.x}, or None.

    Here x.y = sigma_x^-1(y).  For an involutive non-degenerate map this is
    the cycle-set identity (x.y).(x.z) = (y.x).(y.z), which holds exactly
    when the braid relation does (Rump, Adv. Math. 193, 2005;
    Etingof-Schedler-Soloviev, Duke Math. J. 100, 1999).  inverses are the
    inverse rows.

    sigma_x sigma_z depends only on the classes of equal rows of x and z,
    so the composites of the k distinct rows are formed once, one translate
    of the joined rows per class, and each distinct composite gets an id
    below k^2 <= 65536, held in two byte planes.  Row x of the table t of
    ids of sigma_x sigma_{x.y} is inverse row x looked up in class-wise
    tables, one translate per plane, and the identity holds exactly when t
    is symmetric: each row is compared with its column, a strided slice.
    """
    n = len(rows)
    pad = bytes(MAX_TABLE_ORDER - n)
    cls, reps = _row_classes(rows)
    cls, distinct, k = cls + pad, [rows[r] for r in reps], len(reps)
    joined, class_pad = b"".join(distinct), bytes(MAX_TABLE_ORDER - k)
    # composite i * k + j is sigma_i sigma_j for the classes i and j
    composites = b"".join([joined.translate(row + pad) for row in distinct])
    ids: dict[bytes, int] = {}
    composite_ids = [
        ids.setdefault(composites[s * n : s * n + n], len(ids)) for s in range(k * k)
    ]
    planes = []
    for shift in (8, 0):
        plane = bytes((c >> shift) & 255 for c in composite_ids)
        # for class i, w -> the plane byte of the id of sigma_i sigma_{class of w}
        tables = [cls.translate(plane[i * k : i * k + k] + class_pad) for i in range(k)]
        planes.append(b"".join([inv.translate(tables[c]) for inv, c in zip(inverses, cls)]))
    high, low = planes
    for x in range(n):
        start = x * n
        if high[start : start + n] != high[x::n] or low[start : start + n] != low[x::n]:
            y = next(
                y for y in range(n)
                if high[start + y] != high[y * n + x] or low[start + y] != low[y * n + x]
            )
            return f"at ({x}, {y})"
    return None


def _scan_braid_relation(sol: SetTheoreticSolution) -> None:
    """The braid relation triple by triple: the witnesses."""
    size = sol.size
    for x in range(size):
        for y in range(size):
            for z in range(size):
                t = (x, y, z)
                lhs = _apply_r12(sol, _apply_r23(sol, _apply_r12(sol, t)))
                rhs = _apply_r23(sol, _apply_r12(sol, _apply_r23(sol, t)))
                if lhs != rhs:
                    raise BraidRelationError(
                        f"braid relation fails at ({x}, {y}, {z})",
                        witness=(x, y, z),
                    )


def from_brace(brace: LeftBrace) -> SetTheoreticSolution:
    """The solution r(x, y) = (lambda_x(y), lambda^-1_{lambda_x(y)}(x)) of the brace.

    So sigma_x = lambda_x, and tau is _involutive_tau.  The construction is
    guaranteed to produce a valid solution, so a validation failure here is
    reported as an internal error rather than a bad-input error.
    """
    sigma = brace._lambda_rows
    tau = _involutive_tau(sigma, [inverse_row(row) for row in sigma])
    try:
        return validate_solution(brace.order, sigma, tau)
    except SolutionValidationError as exc:
        raise InternalCheckError(
            f"solution built from a valid brace fails validation: {exc}"
        ) from exc


def retract_solution(solution: SetTheoreticSolution) -> SetTheoreticSolution:
    """Quotient by equality of sigma maps, with induced tables.

    Classes are numbered in order of first appearance and the induced
    tables are read off their first members by abelian.quotient_rows, on
    the rows of sigma and the columns of tau; the first pair where another
    member would induce a different entry raises InternalCheckError.  For
    an involutive non-degenerate solution it cannot fail.  The rows go
    through bytes(), which returns a byte row as it is and reads the tuple
    rows of a hand-built solution.
    """
    sigma = list(map(bytes, solution.sigma))
    cls, reps = _row_classes(sigma)
    induced_sigma, sigma_failure = quotient_rows(sigma, cls, reps)
    induced_tau_columns, tau_failure = quotient_rows(columns(list(map(bytes, solution.tau))), cls, reps)
    # the least pair fails first, and sigma before tau at the same pair
    failures = [(at, name) for at, name in ((sigma_failure, "sigma"), (tau_failure, "tau")) if at]
    if failures:
        (x, y), name = min(failures)
        raise InternalCheckError(
            f"induced {name} table ill-defined at classes ({reps[cls[x]]}, {reps[cls[y]]})"
        )
    try:
        return validate_solution(len(reps), induced_sigma, columns(induced_tau_columns))
    except SolutionValidationError as exc:
        raise InternalCheckError(
            f"retract of a valid solution fails validation: {exc}"
        ) from exc


def retraction_tower_sizes(solution: SetTheoreticSolution) -> tuple[int, ...]:
    """Sizes along repeated retraction, ending at the first fixed point."""
    sizes = [solution.size]
    current = solution
    while True:
        nxt = retract_solution(current)
        if nxt.size == current.size:
            return tuple(sizes)
        if nxt.size > current.size:
            raise InternalCheckError("retraction increased the solution size")
        sizes.append(nxt.size)
        current = nxt


def mpl_solution(solution: SetTheoreticSolution) -> int | None:
    """Retraction count down to one point, or None if the tower gets stuck."""
    sizes = retraction_tower_sizes(solution)
    if sizes[-1] == 1:
        return len(sizes) - 1
    return None


def solution_permutation_group(solution: SetTheoreticSolution):
    return closure(solution.size, set(solution.sigma))


def permutation_group_order(solution: SetTheoreticSolution) -> int:
    return solution_permutation_group(solution).order
