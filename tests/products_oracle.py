"""The wreath product with its base group W built by hand, kept as a reference.

``bracelab.products.wreath`` folds W out of direct sums of the base.  This
route writes the pointwise circle table of W out function by function and
validates it, as the package once did; the two must give the same brace.
"""

from bracelab.abelian import make_group
from bracelab.brace import validate_brace
from bracelab.products import BraceAction, semidirect


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
