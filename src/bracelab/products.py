"""Semidirect and wreath products of left braces.

The semidirect product lives on the direct sum of the additive groups;
circle multiplication twists the first component by an action of the second
factor's circle group through brace automorphisms of the first.
"""

from __future__ import annotations

from dataclasses import dataclass

from .abelian import MAX_TABLE_ORDER, Perm, check_table_order, make_group, permutation_rows
from .brace import LeftBrace, validate_brace
from .errors import ActionError, ResourceLimitError

DEFAULT_BRACE_BOUND = 64


@dataclass(frozen=True)
class BraceAction:
    """A circle-group homomorphism from the acting brace into Aut(target)."""

    acting: LeftBrace
    target: LeftBrace
    maps: tuple[Perm, ...]


def make_action(acting: LeftBrace, target: LeftBrace, maps) -> BraceAction:
    """Validate that every map is a brace automorphism of the target and the
    assignment is a homomorphism out of the acting circle group."""
    maps = tuple(tuple(m) for m in maps)
    nh = acting.order
    nt = target.order
    if len(maps) != nh:
        raise ActionError(
            f"need one map per acting element, got {len(maps)} for order {nh}"
        )
    add = target.additive.add_lookups()
    circle = target.circle_table
    # the maps are tested one by one, in order of h, only if some map fails
    bijective = permutation_rows(maps, nt) is not None
    for h, f in enumerate(maps):
        if not bijective and permutation_rows([f], nt) is None:
            raise ActionError(
                f"map of acting element {h} is not a bijection of the target",
                witness=(h,),
            )
        for a in range(nt):
            add_a, add_fa = add[a], add[f[a]]
            circle_a, circle_fa = circle[a], circle[f[a]]
            for b in range(nt):
                if f[add_a[b]] != add_fa[f[b]]:
                    raise ActionError(
                        f"map of {h} does not preserve addition at ({a}, {b})",
                        witness=(h, a, b),
                    )
                if f[circle_a[b]] != circle_fa[f[b]]:
                    raise ActionError(
                        f"map of {h} does not preserve the circle product at ({a}, {b})",
                        witness=(h, a, b),
                    )
    if maps[0] != tuple(range(nt)):
        raise ActionError("the zero element must act as the identity", witness=(0,))
    for h1, row in enumerate(acting.circle_table):
        f1 = maps[h1]
        for h2, f2 in enumerate(maps):
            # maps[h1 o h2] must be maps[h1] after maps[h2]
            if maps[row[h2]] != tuple([f1[x] for x in f2]):
                raise ActionError(
                    f"assignment is not a circle-group homomorphism at ({h1}, {h2})",
                    witness=(h1, h2),
                )
    return BraceAction(acting, target, maps)


def trivial_action(acting: LeftBrace, target: LeftBrace) -> BraceAction:
    ident = tuple(range(target.order))
    return BraceAction(acting, target, tuple(ident for _ in range(acting.order)))


def semidirect(
    target: LeftBrace,
    acting: LeftBrace,
    action: BraceAction | None = None,
    max_order: int = DEFAULT_BRACE_BOUND,
) -> LeftBrace:
    """The brace on target x acting, with pairs indexed g * |acting| + h.

    A product above max_order, or above MAX_TABLE_ORDER, is refused before
    any table work.  A given action is always revalidated here, so a
    hand-built BraceAction cannot smuggle in a non-homomorphism; without
    one, every twist is the identity, which needs no check.
    """
    nt, nh = target.order, acting.order
    order = nt * nh
    if order > max_order:
        raise ResourceLimitError(
            f"product order {order} above configured bound {max_order}"
        )
    check_table_order(order)
    if action is None:
        twists = [bytes(range(nt))] * nh
    elif action.acting != acting or action.target != target:
        raise ActionError("action does not connect the given braces")
    else:
        twists = list(map(bytes, make_action(acting, target, action.maps).maps))
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
        maps.append(tuple(out))
    # semidirect validates the maps, once
    action = BraceAction(top, w_brace, tuple(maps))
    return semidirect(w_brace, top, action, max_order=max_order)
