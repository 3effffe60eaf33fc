"""Involutive set-theoretic solutions: laws, brace transport, retraction towers."""

import pytest

import bracelab.solutions as solutions
from bracelab.abelian import make_group
from bracelab.brace import LeftBrace
from bracelab.errors import (
    BraceLabError,
    BraidRelationError,
    InternalCheckError,
    InvalidPresentationError,
    InvolutivityError,
    NonDegeneracyError,
    ResourceLimitError,
)
from bracelab.solutions import (
    SetTheoreticSolution,
    from_brace,
    mpl_solution,
    permutation_group_order,
    retract_solution,
    retraction_tower_sizes,
    validate_solution,
)
from checks_oracle import oracle_validate_solution
from conftest import lyubashenko_rows
from solutions_oracle import oracle_from_brace, oracle_retract_solution

IDENT3 = (0, 1, 2)


class Index:
    """Converts to a byte like an int, but is not one."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value


class Int(int):
    pass


def outcome(validate, *args):
    try:
        result = validate(*args)
    except BraceLabError as exc:
        return type(exc), str(exc), getattr(exc, "witness", None)
    return "valid", result


class TestValidation:
    def test_shape(self):
        with pytest.raises(InvalidPresentationError):
            validate_solution(2, ((0, 1),), ((0, 1), (1, 0)))
        with pytest.raises(InvalidPresentationError):
            validate_solution(2, ((0, 1), (1, 2)), ((0, 1), (1, 0)))

    def test_non_degeneracy(self):
        with pytest.raises(NonDegeneracyError) as info:
            validate_solution(2, ((0, 0), (0, 1)), ((0, 1), (1, 0)))
        assert info.value.witness == (0,)

    def test_involutivity(self):
        cyc = (1, 2, 0)
        with pytest.raises(InvolutivityError) as info:
            validate_solution(3, (cyc,) * 3, (IDENT3,) * 3)
        assert info.value.witness == (0, 0)

    def test_braid(self):
        sigma = ((0, 2, 1), (0, 2, 1), (1, 2, 0))
        tau = ((0, 2, 1), (2, 0, 1), (0, 2, 1))
        with pytest.raises(BraidRelationError) as info:
            validate_solution(3, sigma, tau)
        assert info.value.witness == (0, 0, 1)

    def test_permutation_solution_is_valid(self):
        # r(x, y) = (f(y), f(x)) for an involution f always passes
        f = (1, 0, 2)
        sol = validate_solution(3, (f,) * 3, (f,) * 3)
        assert sol.r(0, 1) == (f[1], f[0])

    @pytest.mark.parametrize(
        "entry", [-1, 2, 300, 1.0, "1", None, Index(1), Int(1), True]
    )
    def test_odd_entries_as_the_literal_checks(self, entry):
        """Odd entries get the literal checks' outcome.

        An int subclass in range passes the byte rows; every other entry is
        rejected there and named by the entry scan.
        """
        flip = ((1, 0), (1, 0))
        for row in range(2):
            sigma = [list(r) for r in flip]
            sigma[row][1] = entry
            for tables in ((sigma, flip), (flip, sigma)):
                assert outcome(validate_solution, 2, *tables) == outcome(
                    oracle_validate_solution, 2, *tables
                )

    def test_entry_past_the_str_digit_limit(self):
        flip = ((1, 0), (1, 0))
        with pytest.raises(InvalidPresentationError) as info:
            validate_solution(2, [[0, 10**5000], [1, 0]], flip)
        assert str(info.value) == "sigma row 0 has out-of-range entry <16610-bit integer>"

    def test_degenerate_tau_that_inverts_sigma(self):
        # tau_y(x) = sigma_{sigma_x(y)}^-1(x) everywhere, yet tau_1 is no bijection
        sigma = ((0, 1, 2), (0, 1, 2), (0, 2, 1))
        tau = ((0, 1, 2), (0, 1, 1), (0, 2, 2))
        with pytest.raises(NonDegeneracyError, match="tau map of 1") as info:
            validate_solution(3, sigma, tau)
        assert info.value.witness == (1,)

    def test_byte_rows_refuse_out_of_range(self):
        assert solutions._byte_rows(((0, 2), (1, 0)), 2) is None
        assert solutions._byte_rows(((0, 1), (1, 0)), 2) == [b"\x00\x01", b"\x01\x00"]
        ints = ((Int(0), Int(1)), (Int(1), Int(0)))
        assert solutions._byte_rows(ints, 2) == [b"\x00\x01", b"\x01\x00"]
        for entry in (Index(1), 1.0, "1", None):
            assert solutions._byte_rows(((0, entry), (1, 0)), 2) is None

    def test_row_rejection_unconfirmed_is_internal(self, monkeypatch):
        monkeypatch.setattr(solutions, "_rows_involutive", lambda *rows: False)
        f = (1, 0, 2)
        with pytest.raises(InternalCheckError, match="every entry passes"):
            validate_solution(3, (f,) * 3, (f,) * 3)


class TestFromBrace:
    def test_trivial_brace_gives_flip(self, triv6):
        sol = from_brace(triv6)
        for x in range(6):
            for y in range(6):
                assert sol.r(x, y) == (y, x)

    def test_b4_frozen(self, b4):
        sol = from_brace(b4)
        assert sol.r(1, 1) == (3, 3)
        assert sol.sigma == ((0, 1, 2, 3), (0, 3, 2, 1), (0, 1, 2, 3), (0, 3, 2, 1))
        assert permutation_group_order(sol) == 2

    def test_every_small_census_brace(self, census):
        for order in range(1, 9):
            for entry in census(order).entries:
                sol = from_brace(entry.brace)
                # revalidate from scratch: braid, involutivity, non-degeneracy
                validate_solution(sol.size, sol.sigma, sol.tau)

    def test_sigma_rows_are_lambda_rows(self, b9):
        sol = from_brace(b9)
        for a in range(b9.order):
            assert sol.sigma[a] == b9.lambda_row(a)


class TestOldRoutes:
    """from_brace and retract_solution equal the routes they replaced."""

    @staticmethod
    def assert_old_routes_agree(brace):
        current = from_brace(brace)
        assert (current.sigma, current.tau) == oracle_from_brace(brace)
        while True:
            retract = retract_solution(current)
            assert retract == oracle_retract_solution(current)
            if retract.size == current.size:
                return
            current = retract

    @pytest.mark.parametrize("order", [*range(1, 16), 18, 20, 24])
    def test_census(self, census, order):
        for brace in census(order).classes:
            self.assert_old_routes_agree(brace)

    def test_products(self, products):
        for brace in products:
            self.assert_old_routes_agree(brace)


class TestRetraction:
    def test_b4_tower(self, b4):
        sol = from_brace(b4)
        assert retraction_tower_sizes(sol) == (4, 2, 1)
        assert mpl_solution(sol) == 2
        step = retract_solution(sol)
        assert step.size == 2

    def test_flip_retracts_in_one_step(self, triv6):
        sol = from_brace(triv6)
        assert retraction_tower_sizes(sol) == (6, 1)
        assert mpl_solution(sol) == 1

    def test_one_point_solution(self):
        one = from_brace(LeftBrace.trivial(make_group(())))
        assert retraction_tower_sizes(one) == (1,)
        assert mpl_solution(one) == 0

    def test_irretractable_solution(self):
        # smallest solution equal to its own retraction; no finite level
        sigma = ((0, 1, 3, 2), (2, 3, 1, 0), (3, 2, 0, 1), (1, 0, 2, 3))
        tau = ((0, 3, 2, 1), (3, 0, 1, 2), (1, 2, 3, 0), (2, 1, 0, 3))
        sol = validate_solution(4, sigma, tau)
        assert retraction_tower_sizes(sol) == (4,)
        assert mpl_solution(sol) is None

    @pytest.mark.parametrize(
        "sigma, tau, message",
        [
            (
                (IDENT3, IDENT3, (0, 2, 1)),
                (IDENT3,) * 3,
                "induced sigma table ill-defined at classes (2, 0)",
            ),
            (
                (IDENT3, IDENT3, (1, 0, 2)),
                (IDENT3, (0, 2, 1), IDENT3),
                "induced tau table ill-defined at classes (0, 0)",
            ),
        ],
    )
    def test_ill_defined_induced_table_is_internal(self, sigma, tau, message):
        # built directly, so the tables are never validated
        solution = SetTheoreticSolution(3, sigma, tau)
        with pytest.raises(InternalCheckError) as info:
            retract_solution(solution)
        assert str(info.value) == message
        with pytest.raises(InternalCheckError) as info:
            oracle_retract_solution(solution)
        assert str(info.value) == message

    def test_level_matches_brace_level(self, census):
        for order in (4, 6, 8, 9):
            for entry in census(order).entries:
                brace_level = entry.brace.multipermutation_level()
                sol_level = mpl_solution(from_brace(entry.brace))
                assert sol_level == brace_level


class TestPermutationGroup:
    def test_flip_group_is_trivial(self, triv6):
        assert permutation_group_order(from_brace(triv6)) == 1

    def test_order_six_nontrivial(self, census):
        orders = sorted(
            permutation_group_order(from_brace(e.brace)) for e in census(6).entries
        )
        # the kernel of a -> lambda_a is the socle, so sizes are 6/6 and 6/3
        assert orders == [1, 2]

    def test_lyubashenko_order_is_lcm_of_cycles(self):
        solution = validate_solution(*lyubashenko_rows((2, 3, 5, 7)))
        assert permutation_group_order(solution) == 210

    def test_oversized_group_refused(self):
        # lcm(2, 3, 5, ..., 41) = 304,250,263,527,210 elements on 238 points
        primes = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
        solution = validate_solution(*lyubashenko_rows(primes))
        with pytest.raises(ResourceLimitError, match="on 238 points"):
            permutation_group_order(solution)
