"""The census search without pruning, twice over, kept as references.

`oracle_regular_circle_tables` is the regular-subgroup search as bracelab
first ran it: each extension closes the subgroup by composing every new
element with every member in both orders, and each relabeling is written
out entry by entry.  It is slow (order 24 takes several seconds, order 36
about half a minute) but simple enough to trust.

`unpruned_regular_circle_tables` is the byte search the census ran before
it pruned by automorphism orbits: the same coset closure, but every
candidate tried at every node, so it finds every regular subgroup exactly
once and in the tuple search's order.  The census search must find a
subset of its tables that meets every orbit, and so give the same
representatives byte for byte.

`eager_regular_circle_tables` is the pruned census search as it ran
before it listed a closure's cosets lazily: every coset of a candidate
closure is built in full, and membership is a set lookup, before the
closure is accepted or rejected.  The census search must return the same
tables in the same order.

`oracle_relabeler` is the byte relabeler the census ran before it
relabeled by row conjugation: each row is gathered by phi^-1 through an
`itemgetter`.  `full_aut_orbit_representatives` is the orbit step the
census ran before it walked each orbit by a generating set of Aut(A): one
table per class, relabeled by every automorphism with that relabeler.
The walk must give the same representatives on the same tables.
"""

from operator import itemgetter

from bracelab.abelian import MAX_TABLE_ORDER
from bracelab.errors import InternalCheckError
from abelian_oracle import compose_perms, identity_perm, invert_perm


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


def oracle_relabeler(phi, n):
    """Relabeling of flat n x n tables along the bijection phi.

    Entry (phi a, phi b) of the result is phi of entry (a, b): values go
    through translate, and each row is gathered by phi^-1.
    """
    inv = invert_perm(phi)
    values = bytes(phi) + bytes(MAX_TABLE_ORDER - n)
    starts = [i * n for i in inv]
    # itemgetter with a single index returns a scalar, not a tuple
    columns = itemgetter(*inv) if n > 1 else bytes

    def relabel(flat):
        mapped = flat.translate(values)
        return b"".join([bytes(columns(mapped[s : s + n])) for s in starts])

    return relabel


def full_aut_orbit_representatives(tables, auts, n):
    """Lexicographically minimal table of each relabeling orbit, sorted."""
    relabelers = [oracle_relabeler(g, n) for g in auts]
    seen = set()
    reps = []
    for flat in tables:
        if flat in seen:
            continue
        orbit = {relabel(flat) for relabel in relabelers}
        assert flat in orbit, "identity relabeling missing from orbit"
        seen |= orbit
        reps.append(min(orbit))
    reps.sort()
    return reps


def unpruned_regular_circle_tables(group, auts):
    """All circle tables of braces on the group, one per regular subgroup.

    Permutations are bytes, and p after q is q.translate(p + padding).  A
    search node is a subgroup H whose members move 0 to distinct points; it
    carries its members, their set, the covered images of 0 and its
    generators.  Extending H by h builds <H, h> as a union of left cosets
    y o H (Dimino), and gives up as soon as one coset's images of 0 meet
    the covered points.  It accepts exactly the extensions whose closure
    has distinct images of 0 and order dividing n, so it finds the same
    subgroups in the same order as closing under all pairwise products.
    """
    n = group.order
    pad = bytes(MAX_TABLE_ORDER - n)
    add = group.add_rows()
    aut_bytes = [bytes(g) for g in auts]
    candidate_cache = {}

    def candidates(t):
        # holomorph elements moving 0 to t: x -> g(x) + t over all automorphisms
        cached = candidate_cache.get(t)
        if cached is None:
            row = bytes(add[t]) + pad
            cached = [g.translate(row) for g in aut_bytes]
            candidate_cache[t] = cached
        return cached

    def close(node, images0, h):
        base, base_set, base_covered, base_gens = node
        # most candidates fail on their first coset: test it before copying
        if not base_covered.isdisjoint(images0.translate(h + pad)):
            return None
        members, member_set, covered = list(base), set(base_set), set(base_covered)
        gens = base_gens + [h + pad]
        reps = []

        def add_coset(y):
            # y o H; images disjoint from the covered points keep |G| <= n
            table = y + pad
            images = images0.translate(table)
            if not covered.isdisjoint(images):
                return False
            coset = [x.translate(table) for x in base]
            members.extend(coset)
            member_set.update(coset)
            covered.update(images)
            reps.append(y)
            return True

        add_coset(h)
        for r in reps:  # grows while walked, so every representative is visited
            for s in gens:
                y = r.translate(s)
                if y not in member_set and not add_coset(y):
                    return None
        if n % len(members):
            return None
        return members, member_set, covered, gens

    results = []

    def extend(node):
        members, _, covered, _ = node
        if len(members) == n:
            # first bytes are distinct, so sorting orders the rows by a = p(0)
            results.append(b"".join(sorted(members)))
            return
        images0 = bytes(x[0] for x in members)
        target = next(t for t in range(n) if t not in covered)
        for h in candidates(target):
            child = close(node, images0, h)
            if child is not None:
                extend(child)

    ident = bytes(range(n))
    extend(([ident], {ident}, {0}, []))
    return results


def eager_regular_circle_tables(group, auts):
    """Circle tables of braces on the group, at least one per class.

    The census search with eager cosets: extending H by h lists every
    member of each coset y o H of <H, h> as the coset is found, and tests
    membership in the member set, before the closure is accepted or
    rejected.

    A node also carries K, automorphisms that normalize H and fix its
    target t.  Conjugation by a in K maps the candidate x -> g(x) + t to
    x -> aga^-1(x) + t, and maps each regular subgroup through H to one
    through H again, since its members covering the covered points are
    those of H.  So one candidate per K-orbit is tried, and the child's K
    is the candidate's stabilizer in K; the root's K is all of Aut(A).
    Each class is still reached, though not every regular subgroup.
    """
    n = group.order
    pad = bytes(MAX_TABLE_ORDER - n)
    add = group.add_rows()
    aut_bytes = [bytes(g) for g in auts]
    candidate_cache = {}

    def candidates(t):
        # holomorph elements moving 0 to t, x -> g(x) + t, by the index of g
        cached = candidate_cache.get(t)
        if cached is None:
            row = bytes(add[t]) + pad
            cached = {g.translate(row): i for i, g in enumerate(aut_bytes)}
            candidate_cache[t] = cached
        return cached

    def close(node, images0, h):
        base, base_set, base_covered, base_gens = node
        members, member_set, covered = list(base), set(base_set), set(base_covered)
        gens = base_gens + [h + pad]
        reps = []

        def add_coset(y):
            # y o H; images disjoint from the covered points keep |G| <= n
            table = y + pad
            images = images0.translate(table)
            if not covered.isdisjoint(images):
                return False
            coset = [x.translate(table) for x in base]
            members.extend(coset)
            member_set.update(coset)
            covered.update(images)
            reps.append(y)
            return True

        if not add_coset(h):
            return None
        for r in reps:  # grows while walked, so every representative is visited
            for s in gens:
                y = r.translate(s)
                if y not in member_set and not add_coset(y):
                    return None
        if n % len(members):
            return None
        return members, member_set, covered, gens

    results = []

    def extend(node, stab):
        members, _, covered, _ = node
        if len(members) == n:
            # first bytes are distinct, so sorting orders the rows by a = p(0)
            results.append(b"".join(sorted(members)))
            return
        images0 = bytes(x[0] for x in members)
        target = next(t for t in range(n) if t not in covered)
        stab = [a for a in stab if a[0][target] == target]
        cands = candidates(target)
        tried = bytearray(len(aut_bytes))
        for h, i in cands.items():
            # most candidates fail on their first coset, and so do their
            # conjugates: test it before the orbit and before copying
            if tried[i] or not covered.isdisjoint(images0.translate(h + pad)):
                continue
            fixers = stab  # a K of at most the identity has one-point orbits
            if len(stab) > 1:
                table = h + pad
                fixers = []
                for a in stab:
                    a_pad, a_inv = a
                    conj = a_inv.translate(table).translate(a_pad)
                    j = cands.get(conj)
                    if j is None:
                        raise InternalCheckError(
                            f"a conjugate of automorphism {i} is missing"
                            " from the automorphism list"
                        )
                    tried[j] = 1
                    if conj == h:
                        fixers.append(a)
            child = close(node, images0, h)
            if child is not None:
                extend(child, fixers)

    ident = bytes(range(n))
    root_stab = [(g + pad, bytes(invert_perm(g))) for g in aut_bytes]
    extend(([ident], {ident}, {0}, []), root_stab)
    return results
