"""The solution routes that bracelab.solutions replaced, kept as oracles.

oracle_from_brace builds sigma and tau from the dot and addition tables,
and oracle_retract_solution asserts the induced tables class pair by class
pair.  tests/test_solutions.py checks that the shorter routes agree.
circle_tau reads tau_y(x) = sigma_x(y)' o x o y off the circle table, and
one_pass_retract_solution checks every pair of the induced tables in one
loop; bracelab.solutions now translates byte columns and rows instead, and
tests/test_byte_row_oracles.py compares the two.

pairwise_cycle_set_failure composes the two sides of the cycle-set identity
for each pair x < y, and zip_rows_involutive takes the columns of the
inverse and tau tables by zip(*rows); solutions._cycle_set_failure decides
the identity on the composites of the classes of equal rows, and
solutions._rows_involutive takes columns as strided slices.
"""

from bracelab.abelian import MAX_TABLE_ORDER
from bracelab.errors import InternalCheckError, SolutionValidationError
from bracelab.solutions import validate_solution


def pairwise_cycle_set_failure(rows, inverses):
    """The first pair x < y, by x then y, with sigma_x sigma_{x.y} !=
    sigma_y sigma_{y.x}, or None; each pair composes its two byte rows."""
    n = len(rows)
    pad = bytes(MAX_TABLE_ORDER - n)
    lookups = [row + pad for row in rows]
    for x in range(n):
        for y in range(x + 1, n):
            lhs = rows[inverses[x][y]].translate(lookups[x])
            if lhs != rows[inverses[y][x]].translate(lookups[y]):
                return f"at ({x}, {y})"
    return None


def zip_rows_involutive(sigma_rows, tau_rows, inverses):
    """Whether every row is a bijection and column x of tau is row x of
    sigma looked up in column x of the inverse table, columns by zip."""
    n = len(sigma_rows)
    if any(len(set(row)) != n for row in sigma_rows + tau_rows):
        return False
    pad = bytes(MAX_TABLE_ORDER - n)
    return all(
        row.translate(bytes(inv_col) + pad) == bytes(tau_col)
        for row, inv_col, tau_col in zip(sigma_rows, zip(*inverses), zip(*tau_rows))
    )


def oracle_from_brace(brace):
    """(sigma, tau) of the brace's solution, as tuples of rows.

    For each pair, u = x.y + y and v = z.(x.y + x + y) + x.y + x + y + z
    where z is the circle inverse of u; sigma_x(y) = u and tau_y(x) = v.
    """
    n = brace.order
    add = brace.additive.add_rows()
    dot = brace.dot_table
    sigma = [[0] * n for _ in range(n)]
    tau = [[0] * n for _ in range(n)]
    for x in range(n):
        for y in range(n):
            w = dot[x][y]
            u = add[w][y]
            z = brace.circle_inverse(u)
            s = add[add[w][x]][y]
            v = add[add[dot[z][s]][s]][z]
            sigma[x][y] = u
            tau[y][x] = v
    return tuple(map(tuple, sigma)), tuple(map(tuple, tau))


def oracle_retract_solution(solution):
    """Quotient by equality of sigma maps, checked class pair by class pair."""
    n = solution.size
    class_rep: dict[int, int] = {}
    reps: list[int] = []
    by_row: dict[tuple[int, ...], int] = {}
    for x in range(n):
        rep = by_row.setdefault(solution.sigma[x], x)
        class_rep[x] = rep
        if rep == x:
            reps.append(x)
    local = {rep: i for i, rep in enumerate(reps)}
    m = len(reps)

    classes: dict[int, list[int]] = {rep: [] for rep in reps}
    for x in range(n):
        classes[class_rep[x]].append(x)

    sigma = [[0] * m for _ in range(m)]
    tau = [[0] * m for _ in range(m)]
    for i, x in enumerate(reps):
        for j, y in enumerate(reps):
            s_value = class_rep[solution.sigma[x][y]]
            t_value = class_rep[solution.tau[y][x]]
            for xx in classes[x]:
                for yy in classes[y]:
                    if class_rep[solution.sigma[xx][yy]] != s_value:
                        raise InternalCheckError(
                            f"induced sigma table ill-defined at classes ({x}, {y})"
                        )
                    if class_rep[solution.tau[yy][xx]] != t_value:
                        raise InternalCheckError(
                            f"induced tau table ill-defined at classes ({x}, {y})"
                        )
            sigma[i][j] = local[s_value]
            tau[j][i] = local[t_value]
    return validate_solution(m, sigma, tau)


def circle_tau(brace):
    """tau of the brace's solution, tau_y(x) = sigma_x(y)' o x o y, entry by entry."""
    n = brace.order
    circle = brace.circle_table
    inverse_rows = [circle[brace.circle_inverse(u)] for u in range(n)]
    tau = [[0] * n for _ in range(n)]
    for x, (row, circle_row) in enumerate(zip(brace._lambda_rows, circle)):
        for y in range(n):
            tau[y][x] = inverse_rows[row[y]][circle_row[y]]
    return tuple(map(tuple, tau))


def one_pass_retract_solution(solution):
    """retract_solution with the induced tables checked in one pass over all pairs."""
    n = solution.size
    sigma, tau = solution.sigma, solution.tau
    class_of_row: dict[tuple[int, ...], int] = {}
    cls = [class_of_row.setdefault(row, len(class_of_row)) for row in sigma]
    reps = [cls.index(i) for i in range(len(class_of_row))]
    induced_sigma = [[cls[sigma[x][y]] for y in reps] for x in reps]
    induced_tau = [[cls[tau[y][x]] for x in reps] for y in reps]
    for x in range(n):
        row, cx = sigma[x], cls[x]
        induced_row = induced_sigma[cx]
        for y in range(n):
            cy = cls[y]
            if cls[row[y]] != induced_row[cy]:
                raise InternalCheckError(
                    f"induced sigma table ill-defined at classes ({reps[cx]}, {reps[cy]})"
                )
            if cls[tau[y][x]] != induced_tau[cy][cx]:
                raise InternalCheckError(
                    f"induced tau table ill-defined at classes ({reps[cx]}, {reps[cy]})"
                )
    try:
        return validate_solution(len(reps), induced_sigma, induced_tau)
    except SolutionValidationError as exc:
        raise InternalCheckError(
            f"retract of a valid solution fails validation: {exc}"
        ) from exc
