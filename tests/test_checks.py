"""Theorem checkers: verdicts on known braces, and forced-failure drills.

Real braces can never make these checkers fail (the underlying statements
are true), so the fail paths are exercised by stubbing one ingredient at a
time and watching the checker catch the inconsistency.
"""

import hashlib
import random
from collections import Counter
from types import SimpleNamespace

import pytest

from bracelab.abelian import make_group
from bracelab.brace import BraceSubset, BraceTraits, LeftBrace, validate_brace
from bracelab.census import check_census_order, enumerate_braces
from bracelab.checks import (
    ALL_CHECKS,
    FAIL,
    HYPOTHESIS_NOT_MET,
    PASS,
    CheckReport,
    _ordering_hypothesis,
    _prime_power,
    _residue_valuation,
    check_cubefree_socle,
    check_level_criteria,
    check_nilpotency_equivalence,
    check_odd_minus_rule,
    check_power_identities,
    check_sylow_annihilation,
    observe_square_rule,
    run_brace_checks,
    run_census_checks,
)
from bracelab.errors import InternalCheckError, ResourceLimitError
from bracelab.products import semidirect, wreath
from checks_oracle import oracle_power_identities, recurrence_power_identities


def with_dot_entries(brace, entries):
    """The brace with some dot products overwritten, circle table untouched.

    dot_table is a cached property, so an entry in the instance dictionary
    takes its place; the result is deliberately not a brace.
    """
    dot = [list(row) for row in brace.dot_table]
    for (a, b), value in entries.items():
        dot[a][b] = value
    brace.__dict__["dot_table"] = tuple(tuple(row) for row in dot)
    return brace


def s3_brace() -> LeftBrace:
    """The brace on Z6 with a o b = a + (-1)^a b; its circle group is S3."""
    table = [[(a + (-1) ** a * b) % 6 for b in range(6)] for a in range(6)]
    return validate_brace(make_group((6,)), table)


class TestReportShape:
    def test_fail_requires_witness(self):
        with pytest.raises(InternalCheckError):
            CheckReport("x", "y", FAIL)
        report = CheckReport("x", "y", FAIL, witness=(1,))
        assert report.failed

    def test_pass_needs_no_witness(self):
        assert not CheckReport("x", "y", PASS).failed


class TestHelpers:
    def test_prime_power(self):
        assert _prime_power(1) is None
        assert _prime_power(7) == (7, 1)
        assert _prime_power(8) == (2, 3)
        assert _prime_power(9) == (3, 2)
        assert _prime_power(12) is None

    def test_ordering_hypothesis(self):
        comp = lambda p, e: SimpleNamespace(prime=p, exponent=e)
        # 3 | 2^2 - 1 and 2 | 3 - 1: no prime can go first
        assert not _ordering_hypothesis([comp(2, 2), comp(3, 1)])
        # 5 divides neither 3 - 1 nor 9 - 1, so 5 then 3 works
        assert _ordering_hypothesis([comp(3, 2), comp(5, 1)])
        assert _ordering_hypothesis([comp(2, 3)])
        assert _ordering_hypothesis([])

    def test_residue_valuation(self):
        # 7 - 1 = 2 * 3 and 7^2 - 1 = 2^4 * 3; 2 - 1 = 1 and 2^2 - 1 = 3
        assert _residue_valuation(2, 7, 1) == 1
        assert _residue_valuation(2, 7, 2) == 4
        assert _residue_valuation(3, 2, 1) == 0
        assert _residue_valuation(3, 2, 2) == 1
        assert _residue_valuation(5, 5, 3) == 0


class TestVerdictsOnRealBraces:
    def test_single_prime_skips_annihilation(self, b4):
        report = check_sylow_annihilation(b4)
        assert report.verdict == HYPOTHESIS_NOT_MET
        assert report.notes == ("single prime",)

    def test_two_prime_annihilation_passes(self, triv6, census):
        for brace in [triv6] + [e.brace for e in census(6).entries]:
            report = check_sylow_annihilation(brace)
            assert report.verdict == PASS
            assert any("literal all-elements" in note for note in report.notes)

    def test_cubefree_socle(self, b4, census):
        assert check_cubefree_socle(b4).verdict == PASS
        for entry in census(8).entries:
            assert check_cubefree_socle(entry.brace).verdict == HYPOTHESIS_NOT_MET

    def test_level_criteria_order_six(self, census):
        for entry in census(6).entries:
            report = check_level_criteria(entry.brace)
            assert report.verdict == PASS
            assert report.notes == (
                "socle-lifting",
                "ordered-primes",
                "cyclic-square-zero",
            )

    def test_level_criteria_order_twelve(self, census):
        # 3 | 2^2 - 1 and 2 | 3 - 1, so the ordered-primes route never fires
        # at order 12.  The two classes on the cyclic group Z12 still pass:
        # their Sylow components are one-generator braces with b.b = 0.
        verdicts = {}
        for idx, entry in enumerate(census(12).entries):
            report = check_level_criteria(entry.brace)
            verdicts[idx, entry.invariant_factors] = report.verdict
            if report.verdict == PASS:
                assert report.notes == ("cyclic-square-zero",)
        passed = sorted(key for key, v in verdicts.items() if v == PASS)
        skipped = sorted(key for key, v in verdicts.items() if v == HYPOTHESIS_NOT_MET)
        assert passed == [(7, (12,)), (8, (12,))]
        assert len(skipped) == 8

    def test_nilpotency_equivalence(self, census):
        for order in (6, 8):
            for entry in census(order).entries:
                assert check_nilpotency_equivalence(entry.brace).verdict == PASS

    def test_odd_minus_rule(self, b9, triv6):
        assert check_odd_minus_rule(triv6).verdict == HYPOTHESIS_NOT_MET
        assert check_odd_minus_rule(b9).verdict == PASS

    def test_power_identities(self, b4, b9, census):
        for brace in (b4, b9):
            assert check_power_identities(brace).verdict == PASS
        for entry in census(8).entries:
            assert check_power_identities(entry.brace).verdict == PASS

    def test_square_rule_observation(self, b4, census):
        report = observe_square_rule(b4)
        assert report.verdict == PASS
        assert report.notes == ("two-sidedness under the square rule: True",)
        verdicts = sorted(
            observe_square_rule(e.brace).verdict for e in census(6).entries
        )
        assert verdicts == [HYPOTHESIS_NOT_MET, PASS]


class TestForcedFailures:
    def test_bad_polynomial_exponent_is_caught(self, triv6, monkeypatch):
        import bracelab.checks as checks_module

        monkeypatch.setattr(checks_module, "annihilation_exponent", lambda *a: 99)
        report = check_sylow_annihilation(triv6)
        assert report.verdict == FAIL
        assert report.witness == (2, 1, 3, 1)

    def test_mismatched_nilpotency_is_caught(self, triv6, monkeypatch):
        fake = BraceTraits(
            is_two_sided=True,
            left_nil_index=None,
            adjoint_nilpotent=True,
            minus_rule=True,
            ring_nilpotent=True,
        )
        monkeypatch.setattr(LeftBrace, "classify", lambda self: fake)
        report = check_nilpotency_equivalence(triv6)
        assert report.verdict == FAIL
        assert report.witness == (6,)

    def test_one_sided_odd_brace_is_caught(self, b9, monkeypatch):
        fake = BraceTraits(
            is_two_sided=False,
            left_nil_index=2,
            adjoint_nilpotent=True,
            minus_rule=True,
            ring_nilpotent=None,
        )
        monkeypatch.setattr(LeftBrace, "classify", lambda self: fake)
        report = check_odd_minus_rule(b9)
        assert report.verdict == FAIL
        assert report.notes == ("not two-sided",)

    def test_zero_socle_cubefree_is_caught(self, b4, monkeypatch):
        monkeypatch.setattr(
            LeftBrace,
            "socle",
            lambda self: BraceSubset(self, frozenset((0,)), True, True),
        )
        report = check_cubefree_socle(b4)
        assert report.verdict == FAIL
        assert report.notes == ("zero socle",)


class TestPowerIdentityDrills:
    """Each fail note of check_power_identities, fired on a corrupted dot
    table, with the same report from the literal-sum oracle."""

    @pytest.mark.parametrize(
        "order, entries, witness, note",
        [
            # 1 . 1 = 1 expands 1 o 1 to 2.1 + 1 . 1 = 3, but 1 o 1 = 2
            (4, {(1, 1): 1}, (1, 2), "circle power binomial expansion fails"),
            # 0 . 1 = 2 and 0 . 2 = 0 expand (0 o 0) . 1 = 2 to 2.2 + 0 = 0
            (4, {(0, 1): 2}, (0, 1, 2), "vanishing equivalence fails at a prime power"),
            # 0 . 3 = 1 and 0 . 1 = 0 expand (0 o 0) . 3 = 1 to 2.1 + 0 = 2
            (4, {(0, 3): 1}, (0, 3, 2), "dotted binomial expansion fails"),
            # the sixth circle power of 1 is 0, so 0 . 3 = 3 should expand
            # from the zero row of 1; m = 6 is no prime power, so the zero
            # on one side only is an inequality, not a vanishing failure
            (6, {(0, 3): 3}, (1, 3, 6), "dotted binomial expansion fails"),
        ],
    )
    def test_expansion_notes(self, order, entries, witness, note):
        brace = with_dot_entries(LeftBrace.trivial(make_group((order,))), entries)
        for checker in (check_power_identities, oracle_power_identities):
            report = checker(brace)
            assert report.verdict == FAIL
            assert report.witness == witness
            assert report.notes == (note,)

    def test_square_kill_note(self):
        # 1 has circle order 2 and 2 has additive order 3.  Setting
        # 1 . 2 = 3 (order 2) and 1 . 5 = 0 keeps every binomial expansion
        # true, but 1 . (1 . 2) = 1 . 3 = 0 while 1 . 2 != 0.
        genuine = s3_brace()
        assert genuine.dot_table[1] == (0, 4, 2, 0, 4, 2)
        assert check_power_identities(genuine).verdict == PASS
        brace = with_dot_entries(
            LeftBrace(genuine.additive, genuine.circle_table), {(1, 2): 3, (1, 5): 0}
        )
        for checker in (check_power_identities, oracle_power_identities):
            report = checker(brace)
            assert report.verdict == FAIL
            assert report.witness == (1, 2)
            assert report.notes == ("square kill without product kill across primes",)

    def test_row_walk_decides_where_lambda_is_additive(self):
        # dot row 0 becomes x -> 2x, so lambda_0(x) = x + 2x = -x is still
        # additive and passes the guard; the walk then fails at m = 2,
        # lambda_0^2 = id against lambda_{0 o 0} = lambda_0 = -x
        brace = doubling_row_zero()
        assert brace.dot_table[0] == (0, 2, 0, 2)
        assert [(x + brace.dot_table[0][x]) % 4 for x in range(4)] == [0, 3, 2, 1]
        report = check_power_identities(brace)
        assert report == oracle_power_identities(brace)
        assert report.verdict == FAIL
        assert report.witness == (0, 1, 2)
        assert report.notes == ("vanishing equivalence fails at a prime power",)

    def test_seeded_random_corruptions(self, census):
        # the recurrence scan is the route the rows replaced; where the
        # corrupted rows are still additive it also equals the literal sums
        braces = [entry.brace for order in range(1, 13) for entry in census(order).entries]
        rng = random.Random(1207)
        seen = Counter()
        for _ in range(500):
            genuine = rng.choice(braces)
            n = genuine.order
            entries = {
                (rng.randrange(n), rng.randrange(n)): rng.randrange(n)
                for _ in range(rng.randint(1, 3))
            }
            brace = with_dot_entries(
                LeftBrace(genuine.additive, genuine.circle_table), entries
            )
            report = check_power_identities(brace)
            assert report == recurrence_power_identities(brace), entries
            add, dot = genuine.additive.add_rows(), brace.dot_table
            if all(
                dot[a][add[x][y]] == add[dot[a][x]][dot[a][y]]
                for a in range(n)
                for x in range(n)
                for y in range(n)
            ):
                assert report == oracle_power_identities(brace), entries
            seen[report.notes] += 1
        assert set(seen) == {
            (),
            ("circle power binomial expansion fails",),
            ("vanishing equivalence fails at a prime power",),
            ("dotted binomial expansion fails",),
        }


def doubling_row_zero() -> LeftBrace:
    """The trivial brace on Z4 with dot row 0 set to x -> 2x."""
    return with_dot_entries(LeftBrace.trivial(make_group((4,))), {(0, 1): 2, (0, 3): 2})


class TestPowerIdentityOracle:
    @pytest.mark.parametrize("order", range(1, 13))
    def test_reports_equal_literal_sums(self, census, order):
        for idx, entry in enumerate(census(order).entries):
            subject = f"{order}:{idx}"
            assert check_power_identities(entry.brace, subject) == (
                oracle_power_identities(entry.brace, subject)
            )

    def test_non_cyclic_circle_group(self):
        brace = s3_brace()
        assert check_power_identities(brace) == oracle_power_identities(brace)


def products_48_to_64():
    """Products of order 48 to 64, built as the file benchmark builds them."""
    two, four, six, eight = (enumerate_braces(o).classes for o in (2, 4, 6, 8))
    return [
        semidirect(eight[0], eight[1]),
        semidirect(six[1], eight[18]),
        wreath(two[0], four[3]),
    ]


class TestPowerIdentityRows:
    """The row walk on genuine braces, where every expansion holds."""

    @pytest.mark.parametrize("order", [13, 14, 15, 18, 20, 45])
    def test_classes_equal_recurrence_scan(self, census, order):
        for idx, entry in enumerate(census(order).entries):
            subject = f"{order}:{idx}"
            report = check_power_identities(entry.brace, subject)
            assert report == recurrence_power_identities(entry.brace, subject)
            assert report.verdict == PASS

    def test_products_equal_recurrence_scan(self):
        products = products_48_to_64()
        assert sorted(b.order for b in products) == [48, 64, 64]
        for brace in products:
            report = check_power_identities(brace)
            assert report == recurrence_power_identities(brace)
            assert report.verdict == PASS

    def test_scan_never_decides_a_pass(self, census, monkeypatch):
        import bracelab.checks as checks_module

        def refuse(*args):
            raise AssertionError("the b-by-b scan ran on a genuine brace")

        monkeypatch.setattr(checks_module, "_scan_dotted_expansion", refuse)
        for brace in (census(24).entries[50].brace, products_48_to_64()[0]):
            assert check_power_identities(brace).verdict == PASS

    def test_walk_failure_the_scan_denies(self, monkeypatch):
        import bracelab.checks as checks_module

        monkeypatch.setattr(checks_module, "_scan_dotted_expansion", lambda *args: None)
        with pytest.raises(InternalCheckError, match="row walk of lambda_0 fails at power 2"):
            check_power_identities(doubling_row_zero())


class TestRunners:
    def test_run_brace_checks_covers_all(self, b4):
        reports = run_brace_checks(b4, subject="fixture")
        assert len(reports) == len(ALL_CHECKS)
        assert {r.check for r in reports} == {
            "sylow-annihilation",
            "cubefree-socle",
            "level-criteria",
            "nilpotency-equivalence",
            "odd-minus-rule",
            "power-identities",
            "square-rule-observation",
        }
        assert all(r.subject == "fixture" for r in reports)

    def test_census_runner_subjects_and_sorting(self):
        reports = run_census_checks([4])
        assert len(reports) == 4 * len(ALL_CHECKS)
        subjects = {r.subject for r in reports}
        assert subjects == {"4:2x2:0", "4:2x2:1", "4:4:2", "4:4:3"}
        ordered = [(r.subject, r.check) for r in reports]
        assert ordered == sorted(ordered)
        assert not any(r.failed for r in reports)

    def test_verify_45_verdicts_are_pinned(self):
        # the verdicts, witnesses and notes of the whole suite over the
        # censuses of orders 1..15, 18, 20 and 45; a faster checker must
        # reproduce them exactly
        orders = list(range(1, 16)) + [18, 20, 45]
        reports = run_census_checks(orders, max_order=45)
        assert len(reports) == 574
        assert verdict_split(reports) == (403, 0, 171)
        assert report_digest(reports) == (
            "79a8941545f6d69e0ce5d0c76be8a580492ac02415809b644e1a6db5da38908c"
        )

    @pytest.mark.slow
    def test_frontier_verdicts_are_pinned(self):
        # every order up to 63 that the census admits; the digest was taken
        # before the dotted expansion was decided by rows
        orders, refused = [], []
        for order in range(1, 64):
            try:
                check_census_order(order, 63)
            except ResourceLimitError:
                refused.append(order)
            else:
                orders.append(order)
        assert refused == [32, 48]
        reports = run_census_checks(orders, max_order=63)
        assert len(reports) == 7182
        assert verdict_split(reports) == (4217, 0, 2965)
        assert report_digest(reports) == (
            "4de6f245dfc6f305a749589b1a47930732a66e91d61f0c873e4446c4cba573a3"
        )


def verdict_split(reports) -> tuple[int, int, int]:
    """How many reports pass, fail and miss the hypothesis."""
    return tuple(
        sum(r.verdict == v for r in reports) for v in (PASS, FAIL, HYPOTHESIS_NOT_MET)
    )


def report_digest(reports) -> str:
    """SHA-256 of the sorted (subject, check, verdict, witness, notes) reprs."""
    lines = sorted(
        repr((r.subject, r.check, r.verdict, r.witness, r.notes)) for r in reports
    )
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()
