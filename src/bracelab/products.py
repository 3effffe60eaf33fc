"""Semidirect and wreath products of left braces.

The semidirect product lives on the direct sum of the additive groups;
circle multiplication twists the first component by an action of the second
factor's circle group through brace automorphisms of the first.
"""

from __future__ import annotations

from .abelian import MAX_TABLE_ORDER, check_table_order, make_group, permutation_rows
from .brace import LeftBrace, validate_brace
from .errors import ActionError, ResourceLimitError

DEFAULT_BRACE_BOUND = 64


def make_action(acting: LeftBrace, target: LeftBrace, maps) -> tuple[bytes, ...]:
    """The maps as byte rows, once each is a brace automorphism of the
    target and the assignment is a homomorphism out of the acting circle
    group.  Else ActionError names the first law broken, and its witness."""
    nh, nt = acting.order, target.order
    if len(maps) != nh:
        raise ActionError(
            f"need one map per acting element, got {len(maps)} for order {nh}"
        )
    pad = bytes(MAX_TABLE_ORDER - nt)
    add = target.additive.add_lookups()
    circle = [row + pad for row in target.circle_table]
    rows = []
    for h, f in enumerate(maps):
        checked = permutation_rows([f], nt)
        if checked is None:
            raise ActionError(
                f"map of acting element {h} is not a bijection of the target",
                witness=(h,),
            )
        f = checked[0]
        rows.append(f)
        lookup = f + pad
        for a, fa in enumerate(f):
            # over b: f(a + b) against f(a) + f(b), f(a o b) against f(a) o f(b)
            sums = add[a][:nt].translate(lookup), f.translate(add[fa])
            prods = circle[a][:nt].translate(lookup), f.translate(circle[fa])
            if sums[0] != sums[1] or prods[0] != prods[1]:
                b = next(
                    b for b in range(nt) if (sums[0][b], prods[0][b]) != (sums[1][b], prods[1][b])
                )
                law = "addition" if sums[0][b] != sums[1][b] else "the circle product"
                raise ActionError(
                    f"map of {h} does not preserve {law} at ({a}, {b})", witness=(h, a, b)
                )
    if rows[0] != bytes(range(nt)):
        raise ActionError("the zero element must act as the identity", witness=(0,))
    for h1, row in enumerate(acting.circle_table):
        lookup = rows[h1] + pad
        for h2, f2 in enumerate(rows):
            # maps[h1 o h2] must be maps[h1] after maps[h2]
            if rows[row[h2]] != f2.translate(lookup):
                raise ActionError(
                    f"assignment is not a circle-group homomorphism at ({h1}, {h2})",
                    witness=(h1, h2),
                )
    return tuple(rows)


def semidirect(
    target: LeftBrace,
    acting: LeftBrace,
    maps=None,
    max_order: int = DEFAULT_BRACE_BOUND,
) -> LeftBrace:
    """The brace on target x acting, with pairs indexed g * |acting| + h,
    acting element h twisting the target by maps[h].

    A product above max_order, or above MAX_TABLE_ORDER, is refused before
    any table work.  Given maps always go through make_action; without
    them, every twist is the identity, which needs no check.
    """
    nt, nh = target.order, acting.order
    order = nt * nh
    if order > max_order:
        raise ResourceLimitError(
            f"product order {order} above configured bound {max_order}"
        )
    check_table_order(order)
    if maps is None:
        twists = [bytes(range(nt))] * nh
    else:
        twists = make_action(acting, target, maps)
    group = make_group(target.additive.factors + acting.additive.factors)
    # (g1, h1) o (g2, h2) = (g1 o twist_h1(g2), h1 o h2): row (g1, h1) joins,
    # over g2, the block of g * nh + h1 o h2 over h2 for g = g1 o twist_h1(g2)
    pad = bytes(MAX_TABLE_ORDER - nt)
    blocks = [
        [bytes(g * nh + h for h in row) for g in range(nt)] for row in acting.circle_table
    ]
    lookups = [row + pad for row in target.circle_table]
    table = [
        b"".join(map(blocks[h1].__getitem__, twists[h1].translate(lookup)))
        for lookup in lookups
        for h1 in range(nh)
    ]
    return validate_brace(group, table)


def direct_sum(left: LeftBrace, right: LeftBrace, max_order: int = DEFAULT_BRACE_BOUND) -> LeftBrace:
    return semidirect(left, right, max_order=max_order)


def wreath(
    base: LeftBrace, top: LeftBrace, max_order: int = DEFAULT_BRACE_BOUND
) -> LeftBrace:
    """Functions from the top brace to the base one, twisted by translation.

    W carries pointwise addition and circle product, so it is the direct
    sum of |top| copies of the base; the top element h moves a function f
    to x -> f(h o x).  The result is the semidirect product of W by the
    top brace.
    """
    nb, nt = base.order, top.order
    w_order = nb**nt
    if w_order * nt > max_order:
        raise ResourceLimitError(
            f"wreath order {w_order * nt} above configured bound {max_order}"
        )
    check_table_order(w_order * nt)
    # W is the direct sum of nt copies of the base, copy 0 most significant
    w_brace = base
    for _ in range(nt - 1):
        w_brace = direct_sum(base, w_brace, max_order=max_order)

    # the value of a function f at x is its digit of stride nb^(nt-1-x)
    strides = [nb ** (nt - 1 - x) for x in range(nt)]
    maps = []
    for h in range(nt):
        out = []
        for f in range(w_order):
            acc = 0
            for x in range(nt):
                acc += ((f // strides[top.circle(h, x)]) % nb) * strides[x]
            out.append(acc)
        maps.append(bytes(out))
    # semidirect validates the maps, once
    return semidirect(w_brace, top, maps, max_order=max_order)
