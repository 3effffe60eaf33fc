"""The census search on tuple permutations, kept as a reference.

This is the regular-subgroup search as bracelab first ran it: each
extension closes the subgroup by composing every new element with every
member in both orders, and each relabeling is written out entry by entry.
It is slow (order 24 takes several seconds, order 36 about half a minute)
but simple enough to trust, so the census must reproduce its tables byte
for byte, in the same order.
"""

from bracelab.abelian import compose_perms, identity_perm, invert_perm


def oracle_regular_circle_tables(group, auts):
    """All circle tables of braces on the group, one per regular subgroup."""
    n = group.order
    add = group.add_rows()
    candidate_cache = {}

    def candidates(t):
        # holomorph elements moving 0 to t: x -> g(x) + t over all automorphisms
        cached = candidate_cache.get(t)
        if cached is None:
            row = add[t]
            cached = [tuple(row[v] for v in g) for g in auts]
            candidate_cache[t] = cached
        return cached

    results = []

    def emit(members):
        rows = {p[0]: p for p in members}
        flat = bytearray(n * n)
        for a in range(n):
            flat[a * n : (a + 1) * n] = bytes(rows[a])
        results.append(bytes(flat))

    def extend(members, covered):
        if len(members) == n:
            emit(members)
            return
        target = min(set(range(n)) - covered)
        for h in candidates(target):
            closed = oracle_close(members, h, n)
            if closed is None:
                continue
            images = {p[0] for p in closed}
            if len(images) != len(closed) or n % len(closed) != 0:
                continue
            extend(closed, frozenset(images))

    extend(frozenset((identity_perm(n),)), frozenset((0,)))
    return results


def oracle_close(members, extra, n):
    """Subgroup closure of members plus extra, or None once it exceeds n.

    Every newly inserted element is composed with a snapshot of all current
    elements in both orders; pairs among later insertions are handled when
    the later one is processed.
    """
    if extra in members:
        return members
    elems = set(members)
    elems.add(extra)
    queue = [extra]
    while queue:
        x = queue.pop()
        for y in tuple(elems):
            for z in (compose_perms(x, y), compose_perms(y, x)):
                if z not in elems:
                    if len(elems) == n:
                        return None
                    elems.add(z)
                    queue.append(z)
    return frozenset(elems)


def oracle_relabel(flat, phi, phi_inv, n):
    out = bytearray(n * n)
    for a in range(n):
        src = phi_inv[a]
        row = flat[src * n : (src + 1) * n]
        base = a * n
        for b in range(n):
            out[base + b] = phi[row[phi_inv[b]]]
    return bytes(out)


def oracle_orbit_representatives(tables, auts, n):
    """Lexicographically minimal table of each relabeling orbit, sorted."""
    inverses = [invert_perm(g) for g in auts]
    seen = set()
    reps = []
    for flat in tables:
        if flat in seen:
            continue
        orbit = {oracle_relabel(flat, g, g_inv, n) for g, g_inv in zip(auts, inverses)}
        assert flat in orbit, "identity relabeling missing from orbit"
        seen |= orbit
        reps.append(min(orbit))
    reps.sort()
    return reps
