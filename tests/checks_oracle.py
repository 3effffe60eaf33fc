"""The power-identity check as bracelab first ran it, kept as a reference.

Every binomial sum is written out literally: each term pays a
decode/encode ``scale`` and each (a, b) pair rebuilds its e-sequence, so
one brace costs O(n^4).  It is slow but simple enough to trust, so
``checks.check_power_identities`` must return an equal report on every
brace it is compared on.
"""

import math

from bracelab.checks import FAIL, PASS, _prime_power, _report


def oracle_power_identities(brace, subject: str = ""):
    """The binomial expansions of circle powers, their vanishing equivalence
    at prime powers, and the coprime square-kill implication."""
    name = "power-identities"
    n = brace.order
    add = brace.additive.add_rows()
    scale = brace.additive.scale
    dot = brace.dot_table

    for a in range(n):
        powers = [0]
        row = brace.circle_table[a]
        for _ in range(n):
            powers.append(row[powers[-1]])
        lefts = [None, a]
        for _ in range(n - 1):
            lefts.append(dot[a][lefts[-1]])
        for m in range(1, n + 1):
            acc = 0
            for i in range(1, m + 1):
                acc = add[acc][scale(math.comb(m, i), lefts[i])]
            if acc != powers[m]:
                return _report(
                    name, subject, FAIL, witness=(a, m),
                    notes=("circle power binomial expansion fails",),
                )
        for b in range(n):
            seq = brace.e_sequence(a, b, n)
            for m in range(1, n + 1):
                acc = 0
                for i in range(1, m + 1):
                    acc = add[acc][scale(math.comb(m, i), seq[i])]
                if _prime_power(m) is not None and (dot[powers[m]][b] == 0) != (acc == 0):
                    return _report(
                        name, subject, FAIL, witness=(a, b, m),
                        notes=("vanishing equivalence fails at a prime power",),
                    )
                if acc != dot[powers[m]][b]:
                    return _report(
                        name, subject, FAIL, witness=(a, b, m),
                        notes=("dotted binomial expansion fails",),
                    )

    for a in range(n):
        pa = _prime_power(brace.circle_order(a))
        if pa is None and a != 0:
            continue
        for b in range(n):
            qb = _prime_power(brace.additive.order_of(b))
            if qb is None:
                continue
            if pa is not None and pa[0] == qb[0]:
                continue
            if dot[a][dot[a][b]] == 0 and dot[a][b] != 0:
                return _report(
                    name, subject, FAIL, witness=(a, b),
                    notes=("square kill without product kill across primes",),
                )
    return _report(name, subject, PASS)
