"""End-to-end command tests driven through main(argv).

Everything runs in-process against tmp_path files; the subprocess tests
at the end check that module execution propagates exit codes.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from bracelab import (
    BraceDocument,
    LeftBrace,
    make_group,
    parse_brace_document,
    parse_solution_document,
    serialize_brace_document,
    serialize_solution_document,
    SolutionDocument,
)
from bracelab import abelian, cli, documents, products
from bracelab.cli import main
from bracelab.census import enumerate_braces
from bracelab.checks import FAIL, CheckReport
from bracelab.errors import InternalCheckError
from bracelab.solutions import from_brace
from conftest import lyubashenko_rows


def run_module(*args):
    """python -m bracelab.cli in a child that imports this same package."""
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "bracelab.cli", *args],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )


def brace_file(tmp_path, brace, name):
    path = tmp_path / name
    path.write_text(serialize_brace_document(BraceDocument.from_brace(brace)))
    return str(path)


@pytest.fixture
def t6_file(tmp_path):
    return brace_file(tmp_path, LeftBrace.trivial(make_group((6,))), "t6.json")


@pytest.fixture
def b4_file(tmp_path, b4):
    return brace_file(tmp_path, b4, "b4.json")


@pytest.fixture
def zero_socle_file(tmp_path, census):
    return brace_file(tmp_path, census(8).entries[16].brace, "z8.json")


class TestValidate:
    def test_valid_file(self, t6_file, capsys):
        assert main(["validate", t6_file]) == 0
        assert capsys.readouterr().out == "valid brace of order 6, additive type [6]\n"

    def test_invalid_table_exits_1_with_witness(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({
            "type": "brace",
            "order": 3,
            "invariant_factors": [3],
            "operation": "circle_table",
            "table": [[0, 1, 2], [1, 0, 2], [2, 1, 0]],
        }))
        assert main(["validate", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("check failed:")
        assert "[witness (" in err

    def test_truncated_json_exits_2(self, tmp_path, capsys):
        path = tmp_path / "trunc.json"
        path.write_text('{"type": "brace", "order": 3')
        assert main(["validate", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: not valid JSON")

    @pytest.mark.parametrize("count", [20000, 300000])
    def test_long_factor_list_exits_2(self, tmp_path, capsys, count):
        path = tmp_path / "long.json"
        path.write_text(json.dumps({
            "type": "brace",
            "order": 2,
            "invariant_factors": [2] * count,
            "operation": "circle_table",
            "table": [[0, 1], [1, 0]],
        }))
        assert main(["validate", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: field 'order' is 2 but")
        assert len(err) < 200

    def test_order_past_64_bits_exits_2(self, tmp_path, capsys):
        # 4,001 digits, quoted twice by the old message; named by size now
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({
            "type": "brace",
            "order": 10**4000,
            "invariant_factors": [10**4000, 10**4000],
            "operation": "circle_table",
            "table": [],
        }))
        assert main(["validate", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: field 'order' is <13288-bit integer> but")
        assert len(err) < 200

    def test_missing_file_exits_2(self, tmp_path, capsys):
        assert main(["validate", str(tmp_path / "nope.json")]) == 2
        assert "error:" in capsys.readouterr().err


class TestAnalyze:
    def test_text_output_trivial(self, t6_file, capsys):
        assert main(["analyze", t6_file]) == 0
        assert capsys.readouterr().out == (
            "order: 6\n"
            "invariant factors: [6]\n"
            "socle size: 6\n"
            "multipermutation level: 1\n"
            "radical chain index: 2\n"
            "sylow orders: [2, 3]\n"
            "two-sided: yes\n"
            "minus rule: yes\n"
            "left nilpotency index: 2\n"
            "adjoint group nilpotent: yes\n"
            "ring nilpotent: yes\n"
        )

    def test_text_output_infinite_level(self, zero_socle_file, capsys):
        # left nilpotent of index 4 yet no finite level: the two notions
        # genuinely differ and the report must not conflate them
        assert main(["analyze", zero_socle_file]) == 0
        out = capsys.readouterr().out
        assert "socle size: 1\n" in out
        assert "multipermutation level: not finite\n" in out
        assert "radical chain index: not finite\n" in out
        assert "left nilpotency index: 4\n" in out
        assert "ring nilpotent: n/a (one-sided)\n" in out

    def test_json_output_matches_api(self, b4_file, b4, capsys):
        assert main(["analyze", "--json", b4_file]) == 0
        info = json.loads(capsys.readouterr().out)
        assert list(info) == [
            "order", "invariant_factors", "socle_size", "multipermutation_level",
            "radical_chain_index", "sylow_orders", "two_sided", "minus_rule",
            "left_nil_index", "adjoint_nilpotent", "ring_nilpotent",
        ]
        assert info["order"] == 4
        assert info["socle_size"] == b4.socle().size
        assert info["multipermutation_level"] == b4.multipermutation_level()
        assert info["radical_chain_index"] == b4.radical_chain_index()
        traits = b4.classify()
        assert info["two_sided"] == traits.is_two_sided
        assert info["left_nil_index"] == traits.left_nil_index


class TestEnumerate:
    def test_summary_plural(self, capsys):
        assert main(["enumerate", "--order", "4"]) == 0
        assert capsys.readouterr().out == "order 4: 4 classes\n"

    def test_summary_singular(self, capsys):
        assert main(["enumerate", "--order", "1"]) == 0
        assert capsys.readouterr().out == "order 1: 1 class\n"

    def test_out_writes_valid_documents(self, tmp_path, capsys):
        out = tmp_path / "cdir"
        assert main(["enumerate", "--order", "4", "--out", str(out)]) == 0
        text = capsys.readouterr().out
        assert f"wrote 4 documents to {out}\n" in text
        names = sorted(p.name for p in out.iterdir())
        assert names == [f"brace_4_{i:03d}.json" for i in range(4)]
        for name in names:
            assert main(["validate", str(out / name)]) == 0

    def test_guard_refuses_32_admits_45(self, capsys):
        assert main(["enumerate", "--order", "32"]) == 3
        captured = capsys.readouterr()
        assert captured.err.startswith("resource limit:")
        assert "2x2x2x2x2" in captured.err and "33554432" in captured.err
        assert captured.out == ""
        assert main(["enumerate", "--order", "45"]) == 0
        assert capsys.readouterr().out == "order 45: 4 classes\n"

    def test_order_zero_is_usage_error(self, capsys):
        assert main(["enumerate", "--order", "0"]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_env_bound_shrinks_reach(self, monkeypatch, capsys):
        monkeypatch.setenv("BRACELAB_MAX_ORDER", "5")
        assert main(["enumerate", "--order", "6"]) == 3
        assert capsys.readouterr().err.startswith("resource limit:")

    def test_order_past_byte_tables_is_resource_limit(self, monkeypatch, capsys):
        # the bound admits 257, but census tables hold elements as bytes
        monkeypatch.setenv("BRACELAB_MAX_ORDER", "300")
        assert main(["enumerate", "--order", "257"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("resource limit:")
        assert "256" in err

    def test_internal_error_exits_4(self, monkeypatch, capsys):
        def broken(*args, **kwargs):
            raise InternalCheckError(
                "orbit of 5 tables does not divide the 336 automorphisms"
            )

        monkeypatch.setattr(cli, "enumerate_braces", broken)
        assert main(["enumerate", "--order", "4"]) == 4
        captured = capsys.readouterr()
        assert captured.err == (
            "internal error: orbit of 5 tables does not divide the 336 automorphisms\n"
        )
        assert captured.out == ""

    def test_env_bound_must_be_integer(self, monkeypatch, capsys):
        monkeypatch.setenv("BRACELAB_MAX_ORDER", "abc")
        assert main(["enumerate", "--order", "4"]) == 2
        assert "BRACELAB_MAX_ORDER" in capsys.readouterr().err

    def test_env_bound_quotes_a_short_value(self, monkeypatch, capsys):
        monkeypatch.setenv("BRACELAB_MAX_ORDER", "abc")
        assert main(["enumerate", "--order", "4"]) == 2
        assert capsys.readouterr().err == (
            "error: BRACELAB_MAX_ORDER must be an integer, got 'abc'\n"
        )

    def test_env_bound_names_a_long_value_by_length(self, monkeypatch, capsys):
        monkeypatch.setenv("BRACELAB_MAX_ORDER", "x" * 100_000)
        assert main(["enumerate", "--order", "4"]) == 2
        err = capsys.readouterr().err
        assert err == (
            "error: BRACELAB_MAX_ORDER must be an integer, got a str of length 100000\n"
        )
        assert len(err) < 200

    def test_env_bound_must_be_positive(self, monkeypatch, capsys):
        monkeypatch.setenv("BRACELAB_MAX_ORDER", "0")
        assert main(["enumerate", "--order", "4"]) == 2
        assert "positive" in capsys.readouterr().err


class TestSolutionCommands:
    def test_from_brace_emits_document(self, b4_file, b4, capsys):
        assert main(["solution", "from-brace", b4_file]) == 0
        out = capsys.readouterr().out
        doc = parse_solution_document(out)
        assert doc.size == 4
        assert doc.sigma == from_brace(b4).sigma

    def test_check_reports_group_order(self, tmp_path, b4, capsys):
        path = tmp_path / "s.json"
        path.write_text(serialize_solution_document(
            SolutionDocument.from_solution(from_brace(b4))
        ))
        assert main(["solution", "check", str(path)]) == 0
        assert capsys.readouterr().out == (
            "valid involutive solution of size 4, permutation group order 2\n"
        )

    def test_check_rejects_braid_failure(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({
            "type": "solution",
            "size": 2,
            "sigma": [[1, 0], [0, 1]],
            "tau": [[0, 1], [0, 1]],
        }))
        assert main(["solution", "check", str(path)]) == 1
        assert capsys.readouterr().err.startswith("check failed:")

    def test_check_refuses_oversized_group(self, tmp_path, capsys):
        # a permutation group of lcm(2, 3, 5, ..., 41) elements on 238 points
        primes = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
        path = tmp_path / "big.json"
        path.write_text(serialize_solution_document(
            SolutionDocument(*lyubashenko_rows(primes))
        ))
        assert main(["solution", "check", str(path)]) == 3
        assert capsys.readouterr().err.startswith(
            "resource limit: permutation group on 238 points"
        )

    def solution_file(self, tmp_path, brace, name="sol.json"):
        path = tmp_path / name
        path.write_text(serialize_solution_document(
            SolutionDocument.from_solution(from_brace(brace))
        ))
        return str(path)

    def test_retract_tower(self, tmp_path, b4, capsys):
        path = self.solution_file(tmp_path, b4)
        assert main(["solution", "retract", "--tower", str(path)]) == 0
        assert capsys.readouterr().out == "4 -> 2 -> 1\nmultipermutation level: 2\n"

    def test_retract_tower_irretractable(self, tmp_path, census, capsys):
        path = self.solution_file(tmp_path, census(8).entries[16].brace)
        assert main(["solution", "retract", "--tower", str(path)]) == 0
        assert capsys.readouterr().out == (
            "8\nmultipermutation level: none (tower stabilizes at size 8)\n"
        )

    @pytest.mark.parametrize(
        "order, idx, sizes", [(4, 1, [4, 2, 1]), (8, 16, [8]), (12, 6, [12, 4, 2, 1])]
    )
    def test_retract_tower_retracts_once_per_step(
        self, tmp_path, census, monkeypatch, capsys, order, idx, sizes
    ):
        import bracelab.solutions as solutions_module

        brace = census(order).entries[idx].brace
        assert list(solutions_module.retraction_tower_sizes(from_brace(brace))) == sizes
        calls = []
        real = solutions_module.retract_solution

        def counting(solution):
            calls.append(solution.size)
            return real(solution)

        monkeypatch.setattr(solutions_module, "retract_solution", counting)
        path = self.solution_file(tmp_path, brace)
        assert main(["solution", "retract", "--tower", str(path)]) == 0
        # one retraction per size in the tower, the last one finding the
        # fixed point
        assert calls == sizes
        assert capsys.readouterr().out.startswith(" -> ".join(map(str, sizes)) + "\n")

    def test_retract_once_emits_document(self, tmp_path, b4, capsys):
        path = self.solution_file(tmp_path, b4)
        assert main(["solution", "retract", str(path)]) == 0
        doc = parse_solution_document(capsys.readouterr().out)
        assert doc.size == 2


class TestProductCommands:
    def test_semidirect_with_action(self, tmp_path, capsys):
        t3 = brace_file(tmp_path, LeftBrace.trivial(make_group((3,))), "t3.json")
        t2 = brace_file(tmp_path, LeftBrace.trivial(make_group((2,))), "t2.json")
        act = tmp_path / "neg.json"
        act.write_text(json.dumps({
            "type": "action",
            "acting_order": 2,
            "target_order": 3,
            "maps": [[0, 1, 2], [0, 2, 1]],
        }))
        assert main([
            "product", "semidirect", t3, t2, "--action", str(act)
        ]) == 0
        captured = capsys.readouterr()
        assert captured.err == "semidirect product of order 6\n"
        doc = parse_brace_document(captured.out)
        assert doc.invariant_factors == (6,)
        brace = doc.to_brace()
        assert brace.socle().size == 3
        assert brace.multipermutation_level() == 2
        assert not brace.classify().is_two_sided

    def test_semidirect_action_order_mismatch(self, tmp_path, capsys):
        t3 = brace_file(tmp_path, LeftBrace.trivial(make_group((3,))), "t3.json")
        t2 = brace_file(tmp_path, LeftBrace.trivial(make_group((2,))), "t2.json")
        act = tmp_path / "act.json"
        act.write_text(json.dumps({
            "type": "action",
            "acting_order": 3,
            "target_order": 3,
            "maps": [[0, 1, 2], [0, 1, 2], [0, 1, 2]],
        }))
        assert main([
            "product", "semidirect", t3, t2, "--action", str(act)
        ]) == 2
        assert "action file is for orders 3 acting on 3" in capsys.readouterr().err

    def test_semidirect_action_not_homomorphism(self, tmp_path, capsys):
        # each map is an automorphism of Z/3, but 1 o 1 = 2 acts as the identity
        t3 = brace_file(tmp_path, LeftBrace.trivial(make_group((3,))), "t3.json")
        act = tmp_path / "act.json"
        act.write_text(json.dumps({
            "type": "action",
            "acting_order": 3,
            "target_order": 3,
            "maps": [[0, 1, 2], [0, 2, 1], [0, 2, 1]],
        }))
        assert main(["product", "semidirect", t3, t3, "--action", str(act)]) == 1
        captured = capsys.readouterr()
        assert captured.err == (
            "check failed: assignment is not a circle-group homomorphism"
            " at (1, 1) [witness (1, 1)]\n"
        )
        assert captured.out == ""

    def test_semidirect_validates_action_once(self, tmp_path, monkeypatch, capsys):
        t3 = brace_file(tmp_path, LeftBrace.trivial(make_group((3,))), "t3.json")
        t2 = brace_file(tmp_path, LeftBrace.trivial(make_group((2,))), "t2.json")
        act = tmp_path / "neg.json"
        act.write_text(json.dumps({
            "type": "action",
            "acting_order": 2,
            "target_order": 3,
            "maps": [[0, 1, 2], [0, 2, 1]],
        }))
        calls = []
        validate = products.make_action

        def counted(*args):
            calls.append(args)
            return validate(*args)

        # the command may call it through either module
        monkeypatch.setattr(products, "make_action", counted)
        monkeypatch.setattr(cli, "make_action", counted, raising=False)
        # without an action every twist is the identity, which is not validated
        for argv, validations in (([t3, t2, "--action", str(act)], 1), ([t3, t2], 0)):
            calls.clear()
            assert main(["product", "semidirect", *argv]) == 0
            assert len(calls) == validations
        capsys.readouterr()

    def test_semidirect_default_trivial_action(self, tmp_path, capsys):
        t3 = brace_file(tmp_path, LeftBrace.trivial(make_group((3,))), "t3.json")
        t2 = brace_file(tmp_path, LeftBrace.trivial(make_group((2,))), "t2.json")
        assert main(["product", "semidirect", t3, t2]) == 0
        doc = parse_brace_document(capsys.readouterr().out)
        brace = doc.to_brace()
        assert brace.socle().size == 6  # direct sum of trivial braces is trivial

    def test_wreath(self, tmp_path, capsys):
        t2 = brace_file(tmp_path, LeftBrace.trivial(make_group((2,))), "t2.json")
        assert main(["product", "wreath", t2, t2]) == 0
        captured = capsys.readouterr()
        assert captured.err == "wreath product of order 8\n"
        doc = parse_brace_document(captured.out)
        assert doc.order == 8
        assert doc.invariant_factors == (2, 2, 2)

    def test_wreath_respects_env_bound(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("BRACELAB_MAX_ORDER", "7")
        t2 = brace_file(tmp_path, LeftBrace.trivial(make_group((2,))), "t2.json")
        assert main(["product", "wreath", t2, t2]) == 3
        assert capsys.readouterr().err.startswith("resource limit:")


class TestInputBound:
    """BRACELAB_MAX_ORDER, when set, refuses larger input files unvalidated."""

    @pytest.fixture
    def files(self, tmp_path, census):
        brace = census(8).entries[5].brace
        solution = tmp_path / "s8.json"
        solution.write_text(
            serialize_solution_document(SolutionDocument.from_solution(from_brace(brace)))
        )
        return brace_file(tmp_path, brace, "b8.json"), str(solution)

    @pytest.fixture
    def no_validation(self, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("validated a file above the bound")

        monkeypatch.setattr(documents, "validate_brace", never)
        monkeypatch.setattr(documents, "validate_solution", never)

    @pytest.mark.parametrize(
        "argv",
        [
            ["validate", "{b}"],
            ["analyze", "{b}"],
            ["analyze", "--json", "{b}"],
            ["solution", "from-brace", "{b}"],
            ["solution", "check", "{s}"],
            ["solution", "retract", "{s}"],
            ["solution", "retract", "--tower", "{s}"],
            ["product", "semidirect", "{b}", "{b}"],
            ["product", "wreath", "{b}", "{b}"],
        ],
    )
    def test_file_above_bound_exits_3(
        self, files, no_validation, monkeypatch, capsys, argv
    ):
        monkeypatch.setenv("BRACELAB_MAX_ORDER", "4")
        b, s = files
        assert main([arg.format(b=b, s=s) for arg in argv]) == 3
        captured = capsys.readouterr()
        assert captured.err.startswith("resource limit:")
        assert "8 above configured bound 4" in captured.err
        assert captured.out == ""

    def test_unset_bound_admits_the_same_files(self, files, monkeypatch, capsys):
        monkeypatch.delenv("BRACELAB_MAX_ORDER", raising=False)
        b, s = files
        assert main(["validate", b]) == 0
        assert main(["solution", "check", s]) == 0
        out = capsys.readouterr().out
        assert "valid brace of order 8" in out
        assert "valid involutive solution of size 8" in out

    def test_file_at_bound_is_admitted(self, files, monkeypatch, capsys):
        monkeypatch.setenv("BRACELAB_MAX_ORDER", "8")
        b, s = files
        assert main(["validate", b]) == 0
        assert main(["solution", "retract", "--tower", s]) == 0


class TestTableBound:
    """Files past MAX_TABLE_ORDER are refused before any law check, with
    BRACELAB_MAX_ORDER unset."""

    n = abelian.MAX_TABLE_ORDER + 1

    @pytest.fixture
    def files(self, tmp_path):
        # written by hand: the addition table of Z/257 is itself refused
        n = self.n
        brace = tmp_path / "b257.json"
        brace.write_text(json.dumps({
            "type": "brace",
            "order": n,
            "invariant_factors": [n],
            "operation": "circle_table",
            "table": [[(a + b) % n for b in range(n)] for a in range(n)],
        }))
        # the flip r(x, y) = (y, x), a valid solution
        ident = [list(range(n))] * n
        solution = tmp_path / "s257.json"
        solution.write_text(json.dumps({
            "type": "solution", "size": n, "sigma": ident, "tau": ident,
        }))
        return str(brace), str(solution)

    @pytest.mark.parametrize(
        "argv",
        [
            ["validate", "{b}"],
            ["analyze", "{b}"],
            ["solution", "check", "{s}"],
            ["solution", "retract", "{s}"],
        ],
    )
    def test_file_past_table_order_exits_3(self, files, monkeypatch, capsys, argv):
        monkeypatch.delenv("BRACELAB_MAX_ORDER", raising=False)
        b, s = files
        started = time.perf_counter()
        assert main([arg.format(b=b, s=s) for arg in argv]) == 3
        assert time.perf_counter() - started < 1
        captured = capsys.readouterr()
        assert captured.err == (
            "resource limit: order 257 above 256, the largest order"
            " whose tables fit in bytes\n"
        )
        assert captured.out == ""


class TestVerify:
    def test_small_run_passes(self, capsys):
        assert main(["verify", "--order-max", "6"]) == 0
        lines = capsys.readouterr().out.splitlines()
        summary = lines[-1]
        assert summary.startswith("orders 1..6:")
        assert " 0 fail," in summary
        for line in lines[:-1]:
            verdict = line.split()[0]
            assert verdict in ("pass", "hypothesis-not-met")

    def test_order_max_zero_is_usage_error(self, capsys):
        assert main(["verify", "--order-max", "0"]) == 2
        assert "--order-max" in capsys.readouterr().err

    def test_env_bound_caps_coverage(self, monkeypatch, capsys):
        monkeypatch.setenv("BRACELAB_MAX_ORDER", "4")
        assert main(["verify", "--order-max", "6"]) == 0
        assert capsys.readouterr().out.splitlines()[-1].startswith("orders 1..4:")

    def test_refused_order_reported_and_others_run(self, monkeypatch, capsys):
        # (2,2,2) needs 8^3 = 512 candidates; every other type up to 9 needs fewer
        monkeypatch.setattr(abelian, "MAX_AUT_CANDIDATES", 511)
        assert main(["verify", "--order-max", "9"]) == 3
        captured = capsys.readouterr()
        assert captured.err == (
            "resource limit: order 8: 2x2x2 needs 512 automorphism candidates,"
            " above the limit 511\n"
        )
        lines = captured.out.splitlines()
        assert lines[-1].startswith("orders 1..9 except 8:")
        subjects = {line.split()[2].split(":")[0] for line in lines[:-1]}
        assert subjects == {str(o) for o in (1, 2, 3, 4, 5, 6, 7, 9)}

    def test_failed_check_outranks_refusal(self, monkeypatch, capsys):
        monkeypatch.setattr(abelian, "MAX_AUT_CANDIDATES", 511)
        fail = CheckReport("fake", "1:1:0", FAIL, witness=(0,))
        monkeypatch.setattr(cli, "run_census_checks", lambda orders: [fail])
        assert main(["verify", "--order-max", "9"]) == 1

    def test_bad_polynomial_exponent_exits_4(self, monkeypatch, capsys):
        import bracelab.checks as checks_module

        monkeypatch.setattr(checks_module, "annihilation_exponent", lambda *a: 99)
        assert main(["verify", "--order-max", "6"]) == 4
        err = capsys.readouterr().err
        assert err.startswith("internal error: field-polynomial exponent 99 disagrees")
        assert err.endswith(" = (2, 1, 3, 1)\n")

    def test_order_max_above_byte_tables_is_refused_up_front(self, monkeypatch, capsys):
        def never(order):
            raise AssertionError(f"order {order} checked")

        monkeypatch.setattr(cli, "check_census_order", never)
        assert main(["verify", "--order-max", "1000000000"]) == 3
        captured = capsys.readouterr()
        assert captured.err.startswith("resource limit: order 1000000000 above 256")
        assert captured.out == ""


class TestParserBehavior:
    def test_no_arguments_is_usage_error(self):
        assert main([]) == 2

    def test_unknown_subcommand_is_usage_error(self):
        assert main(["frobnicate"]) == 2

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "bracelab" in capsys.readouterr().out

    def test_subprocess_exit_code(self, tmp_path):
        proc = run_module("enumerate", "--order", "32")
        assert proc.returncode == 3
        assert proc.stderr.startswith("resource limit:")

    @pytest.mark.parametrize(
        "text",
        ["[" * 200000 + "]" * 200000, '{"order": ' + "9" * 5000 + "}"],
        ids=["deep-nesting", "long-integer"],
    )
    def test_hostile_json_exits_2_without_traceback(self, tmp_path, text):
        path = tmp_path / "hostile.json"
        path.write_text(text)
        proc = run_module("validate", str(path))
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: not valid JSON")
        assert "Traceback" not in proc.stderr
