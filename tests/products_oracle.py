"""Routes the products module replaced, kept as references.

``bracelab.products.wreath`` folds W out of direct sums of the base.
``oracle_wreath`` writes the pointwise circle table of W out function by
function and validates it, as the package once did; the two must give the
same brace.  ``bracelab.products.make_action`` reads the addition and circle
tables row by row and composes maps inline; ``oracle_make_action`` asks the
braces for every sum and product and composes maps with ``compose_perms``.
The two must give the same maps, or the same ActionError and witness.
``bracelab.products.semidirect`` joins byte blocks per row;
``oracle_semidirect_table`` fills the product table entry by entry.
"""

from bracelab.abelian import make_group
from bracelab.brace import validate_brace
from bracelab.errors import ActionError
from bracelab.products import BraceAction, semidirect
from abelian_oracle import compose_perms, identity_perm, is_permutation


def oracle_make_action(acting, target, maps) -> BraceAction:
    """Validate that every map is a brace automorphism of the target and the
    assignment is a homomorphism out of the acting circle group."""
    maps = tuple(tuple(m) for m in maps)
    nh = acting.order
    nt = target.order
    if len(maps) != nh:
        raise ActionError(
            f"need one map per acting element, got {len(maps)} for order {nh}"
        )
    for h, f in enumerate(maps):
        if not is_permutation(f, nt):
            raise ActionError(
                f"map of acting element {h} is not a bijection of the target",
                witness=(h,),
            )
        for a in range(nt):
            for b in range(nt):
                if f[target.add(a, b)] != target.add(f[a], f[b]):
                    raise ActionError(
                        f"map of {h} does not preserve addition at ({a}, {b})",
                        witness=(h, a, b),
                    )
                if f[target.circle(a, b)] != target.circle(f[a], f[b]):
                    raise ActionError(
                        f"map of {h} does not preserve the circle product at ({a}, {b})",
                        witness=(h, a, b),
                    )
    if maps[0] != identity_perm(nt):
        raise ActionError("the zero element must act as the identity", witness=(0,))
    for h1 in range(nh):
        for h2 in range(nh):
            if maps[acting.circle(h1, h2)] != compose_perms(maps[h1], maps[h2]):
                raise ActionError(
                    f"assignment is not a circle-group homomorphism at ({h1}, {h2})",
                    witness=(h1, h2),
                )
    return BraceAction(acting, target, maps)


def oracle_wreath(base, top, max_order: int = 64):
    """Functions from the top brace to the base one, twisted by translation."""
    nb, nt = base.order, top.order
    w_order = nb**nt
    w_group = make_group(base.additive.factors * nt)

    # function values are read off blockwise: position x has stride nb^(nt-1-x)
    strides = [nb ** (nt - 1 - x) for x in range(nt)]

    def value(f: int, x: int) -> int:
        return (f // strides[x]) % nb

    w_table = [[0] * w_order for _ in range(w_order)]
    for f1 in range(w_order):
        row = w_table[f1]
        for f2 in range(w_order):
            acc = 0
            for x in range(nt):
                acc += base.circle(value(f1, x), value(f2, x)) * strides[x]
            row[f2] = acc
    w_brace = validate_brace(w_group, w_table)

    maps = []
    for h in range(nt):
        out = []
        for f in range(w_order):
            acc = 0
            for x in range(nt):
                acc += value(f, top.circle(h, x)) * strides[x]
            out.append(acc)
        maps.append(tuple(out))
    action = BraceAction(top, w_brace, tuple(maps))
    return semidirect(w_brace, top, action, max_order=max_order)


def oracle_semidirect_table(target, acting, maps):
    """(g1, h1) o (g2, h2) = (g1 o maps[h1](g2), h1 o h2), at index g * |acting| + h."""
    nt, nh = target.order, acting.order
    order = nt * nh
    table = [[0] * order for _ in range(order)]
    for g1 in range(nt):
        for h1 in range(nh):
            row = table[g1 * nh + h1]
            twist = maps[h1]
            for g2 in range(nt):
                for h2 in range(nh):
                    g = target.circle(g1, twist[g2])
                    h = acting.circle(h1, h2)
                    row[g2 * nh + h2] = g * nh + h
    return table
