"""The three benchmark workloads: their inputs, one timed op, and its gates.

Each workload turns a seed into a list of ops (``prepare``), runs one op
through bracelab's public API (``run``) and lists every way the op's answer
differs from the expected one (``check``).  An op that raises or has any
problem counts as failed.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass

import bracelab


def _flat_tables_digest(census) -> str:
    digest = hashlib.sha256()
    for entry in census.entries:
        digest.update(bytes(v for row in entry.brace.circle_table for v in row))
    return digest.hexdigest()


def _type_split(census) -> tuple[int, ...]:
    """Class counts per additive type, in census order."""
    split: list[int] = []
    previous = None
    for entry in census.entries:
        if entry.invariant_factors != previous:
            split.append(0)
            previous = entry.invariant_factors
        split[-1] += 1
    return tuple(split)


def _reports_digest(reports) -> str:
    lines = sorted(
        repr((r.subject, r.check, r.verdict, r.witness, r.notes)) for r in reports
    )
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


@dataclass(frozen=True)
class CensusWorkload:
    """The census of one order: the regular-subgroup search of the holomorph.

    At order 24 the search is about 95% of the time.  Type (2,2,6), with
    |Aut| 336 and 1856 regular subgroups, dominates, and the cyclic type,
    with |Aut| 8, is the small-Aut control, so search and Aut-pruning
    changes both show.  The input is fixed: the census of an order is one
    input, so the seed has nothing to choose.
    """

    order: int
    type_split: tuple[int, ...]
    digest: str

    def prepare(self, seed: int) -> list[int]:
        return [self.order]

    def run(self, order: int):
        return bracelab.enumerate_braces(order, max_order=order)

    def check(self, order: int, census) -> list[str]:
        problems = []
        split = _type_split(census)
        if split != self.type_split:
            problems.append(f"classes per type {split}, expected {self.type_split}")
        digest = _flat_tables_digest(census)
        if digest != self.digest:
            problems.append(f"circle-table digest {digest}, expected {self.digest}")
        return problems


@dataclass(frozen=True)
class VerifyWorkload:
    """Every law checker over the censuses of a fixed set of orders.

    Over orders 1..15, 18, 20 and 45 the checkers are about 89% of the time
    and check_power_identities alone about 80%; the census share is about
    11%, spread over 23 additive types that include (3,15) with a large Aut
    but only 9 regular subgroups.  The orders are fixed so the verdict
    counts and digest stay comparable; the seed has nothing to choose.
    """

    orders: tuple[int, ...]
    max_order: int
    verdicts: tuple[int, int, int]  # pass, fail, hypothesis-not-met
    digest: str

    def prepare(self, seed: int) -> list[tuple[int, ...]]:
        return [self.orders]

    def run(self, orders: tuple[int, ...]):
        return bracelab.run_census_checks(list(orders), max_order=self.max_order)

    def check(self, orders, reports) -> list[str]:
        problems = []
        counts = tuple(
            sum(1 for r in reports if r.verdict == v)
            for v in (bracelab.PASS, bracelab.FAIL, bracelab.HYPOTHESIS_NOT_MET)
        )
        if counts != self.verdicts or len(reports) != sum(self.verdicts):
            problems.append(
                f"{len(reports)} reports split {counts}, expected {self.verdicts}"
            )
        digest = _reports_digest(reports)
        if digest != self.digest:
            problems.append(f"report digest {digest}, expected {self.digest}")
        return problems


@dataclass(frozen=True)
class FileOutcome:
    order: int
    socle_size: int
    level: int | None
    group_order: int
    brace_text: str
    brace_doc: object
    solution_text: str
    solution_doc: object
    solution: object


@dataclass(frozen=True)
class FilesWorkload:
    """The CLI file commands on products of order 48 to 64, done in-process.

    Each op builds a product, writes and re-reads it as a brace document,
    computes the analyze invariants, writes and re-reads its solution and
    retracts it.  validate_solution, at n^3 per call, is about 70% of the
    time, and validate_brace runs on large tables.  The seed pairs census
    braces of orders 6 and 8 for the semidirect products (trivial action)
    and picks the order-4 tops of the wreath products (base the order-2
    brace).  The op mix is fixed and each of the 27 order-8 braces appears
    in exactly one product, so the seed changes only the pairings and
    every seed does about the same amount of work.  The censuses run in
    set-up only.
    """

    semidirect_48: int
    semidirect_64: int
    wreath_64: int

    def prepare(self, seed: int) -> list[tuple]:
        pools = {n: bracelab.enumerate_braces(n).classes for n in (2, 4, 6, 8)}
        rng = random.Random(seed)
        eights = rng.sample(pools[8], 2 * self.semidirect_64 + self.semidirect_48)
        ops = [
            ("semidirect", eights.pop(), eights.pop())
            for _ in range(self.semidirect_64)
        ]
        for i, eight in enumerate(eights):
            pair = [pools[6][i % len(pools[6])], eight]
            rng.shuffle(pair)
            ops.append(("semidirect", *pair))
        for top in rng.sample(pools[4], self.wreath_64):
            ops.append(("wreath", pools[2][0], top))
        rng.shuffle(ops)
        return ops

    def run(self, op) -> FileOutcome:
        kind, first, second = op
        if kind == "semidirect":
            product = bracelab.semidirect(first, second)
        else:
            product = bracelab.wreath(first, second)
        brace_text = bracelab.serialize_brace_document(
            bracelab.BraceDocument.from_brace(product)
        )
        brace_doc = bracelab.parse_brace_document(brace_text)
        brace = brace_doc.to_brace()
        # the invariants `bracelab analyze` reports
        brace.classify()
        socle_size = brace.socle().size
        level = brace.multipermutation_level()
        brace.radical_chain_index()
        brace.sylow_components()
        solution_text = bracelab.serialize_solution_document(
            bracelab.SolutionDocument.from_solution(bracelab.from_brace(brace))
        )
        solution_doc = bracelab.parse_solution_document(solution_text)
        solution = solution_doc.to_solution()
        bracelab.retraction_tower_sizes(solution)
        group_order = bracelab.permutation_group_order(solution)
        return FileOutcome(
            brace.order, socle_size, level, group_order,
            brace_text, brace_doc, solution_text, solution_doc, solution,
        )

    def check(self, op, out: FileOutcome) -> list[str]:
        problems = []
        # the permutation group of the solution is B / Soc(B)
        if out.order % out.socle_size or out.group_order != out.order // out.socle_size:
            problems.append(
                f"permutation group order {out.group_order} is not"
                f" {out.order} / socle size {out.socle_size}"
            )
        level = bracelab.mpl_solution(out.solution)
        if level != out.level:
            problems.append(f"mpl_solution {level} != multipermutation_level {out.level}")
        if bracelab.serialize_brace_document(out.brace_doc) != out.brace_text:
            problems.append("brace document does not survive parse and serialize")
        if bracelab.serialize_solution_document(out.solution_doc) != out.solution_text:
            problems.append("solution document does not survive parse and serialize")
        return problems


WORKLOADS = {
    "census-24": CensusWorkload(
        order=24,
        type_split=(30, 52, 14),
        digest="6da046033f31ee22041cd76aa78a3145a54ad77f8f2e6628a140d94f68c5f65c",
    ),
    "verify-45": VerifyWorkload(
        orders=tuple(range(1, 16)) + (18, 20, 45),
        max_order=45,
        verdicts=(403, 0, 171),
        digest="79a8941545f6d69e0ce5d0c76be8a580492ac02415809b644e1a6db5da38908c",
    ),
    "files-64": FilesWorkload(semidirect_48=9, semidirect_64=9, wreath_64=2),
}
