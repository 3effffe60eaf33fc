"""Document layer: canonical JSON in, equal objects out, named errors."""

import enum
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bracelab import (
    ActionDocument,
    BraceDocument,
    DocumentError,
    SolutionDocument,
    are_isomorphic,
    from_brace,
    make_group,
    parse_action_document,
    parse_brace_document,
    parse_solution_document,
    make_action,
    semidirect,
    serialize_action_document,
    serialize_brace_document,
    serialize_solution_document,
    wreath,
)
from bracelab import documents
from bracelab.abelian import MAX_TABLE_ORDER, abelian_group_types, automorphism_group
from bracelab.brace import LeftBrace
from bracelab.census import enumerate_braces
from bracelab.errors import (
    BraceValidationError,
    InternalCheckError,
    InvalidPresentationError,
    ResourceLimitError,
    SolutionValidationError,
)
from bracelab.solutions import validate_solution
from documents_oracle import (
    oracle_get_rows,
    oracle_serialize_action,
    oracle_serialize_brace,
    oracle_serialize_solution,
)


def doc_of(brace, operation="circle_table"):
    return BraceDocument.from_brace(brace, operation)


class TestBraceRoundTrip:
    def test_parse_serialize_identity(self, b4, triv6, census):
        braces = [b4, triv6] + [e.brace for e in census(8).entries[:5]]
        for brace in braces:
            for op in ("circle_table", "lambda_table"):
                doc = doc_of(brace, op)
                text = serialize_brace_document(doc)
                assert parse_brace_document(text) == doc
                # canonical text is a fixed point of parse . serialize
                assert serialize_brace_document(parse_brace_document(text)) == text

    def test_to_brace_restores_tables(self, b4, census):
        for brace in [b4] + [e.brace for e in census(6).entries]:
            for op in ("circle_table", "lambda_table"):
                back = doc_of(brace, op).to_brace()
                assert back.circle_table == brace.circle_table
                assert back.additive.factors == brace.additive.factors

    def test_lambda_table_stores_lambda_rows(self, b4):
        doc = doc_of(b4, "lambda_table")
        assert doc.operation == "lambda_table"
        assert doc.table == tuple(b4.lambda_row(a) for a in range(4))
        assert doc.table != b4.circle_table

    def test_zero_socle_entry_survives(self, census):
        # the order-8 classes with trivial socle are the ones a sloppy
        # serializer would be most likely to mangle; pin one round trip
        entry = census(8).entries[16]
        assert entry.brace.socle().size == 1
        back = doc_of(entry.brace, "lambda_table").to_brace()
        assert back.circle_table == entry.brace.circle_table

    def test_unknown_operation_rejected(self, b4):
        with pytest.raises(DocumentError):
            BraceDocument.from_brace(b4, "dot_table")

    def test_serialized_layout(self, triv6):
        text = serialize_brace_document(doc_of(triv6))
        payload = json.loads(text)
        assert list(payload) == ["type", "order", "invariant_factors", "operation", "table"]
        assert text.endswith("\n")
        assert payload["order"] == 6
        assert payload["invariant_factors"] == [6]


class TestCanonicalFactors:
    def test_product_factors_become_divisor_chain(self):
        z3 = LeftBrace.trivial(make_group((3,)))
        z2 = LeftBrace.trivial(make_group((2,)))
        adj = semidirect(z3, z2, make_action(z2, z3, ((0, 1, 2), (0, 2, 1))))
        # the product group is assembled factor-by-factor, not canonically
        assert adj.additive.factors == (3, 2)
        doc = BraceDocument.from_brace(adj)
        assert doc.invariant_factors == (6,)
        assert are_isomorphic(doc.to_brace(), adj)

    def test_wreath_factors_become_divisor_chain(self):
        z3 = LeftBrace.trivial(make_group((3,)))
        z2 = LeftBrace.trivial(make_group((2,)))
        w = wreath(z3, z2)
        assert w.additive.factors == (3, 3, 2)
        doc = BraceDocument.from_brace(w)
        assert doc.invariant_factors == (3, 6)
        back = doc.to_brace()
        assert back.order == 18
        assert back.multipermutation_level() == w.multipermutation_level()
        assert back.socle().size == w.socle().size

    def test_census_output_already_canonical(self, census):
        for entry in census(12).entries:
            doc = BraceDocument.from_brace(entry.brace)
            assert doc.invariant_factors == entry.invariant_factors
            assert doc.table == entry.brace.circle_table


class TestBraceParseErrors:
    def payload(self, **overrides):
        base = {
            "type": "brace",
            "order": 2,
            "invariant_factors": [2],
            "operation": "circle_table",
            "table": [[0, 1], [1, 0]],
        }
        base.update(overrides)
        return json.dumps(base)

    def test_bad_json_reports_position(self):
        with pytest.raises(DocumentError, match=r"line 2, column"):
            parse_brace_document('{\n  "type": "brace",,\n}')

    @pytest.mark.parametrize(
        "parse",
        [parse_brace_document, parse_solution_document, parse_action_document],
    )
    @pytest.mark.parametrize(
        "text, message",
        [
            ("[" * 200000 + "]" * 200000, "nested too deeply"),
            ('{"order": ' + "9" * 5000 + "}", "digits"),
        ],
        ids=["deep-nesting", "long-integer"],
    )
    def test_hostile_json_is_a_document_error(self, parse, text, message):
        with pytest.raises(DocumentError, match=message):
            parse(text)

    def test_top_level_must_be_object(self):
        with pytest.raises(DocumentError, match="top level"):
            parse_brace_document("[1, 2]")

    def test_wrong_type_tag(self):
        with pytest.raises(DocumentError, match="'type'"):
            parse_brace_document(self.payload(type="solution"))

    def test_missing_order(self):
        bad = json.loads(self.payload())
        del bad["order"]
        with pytest.raises(DocumentError, match="'order'"):
            parse_brace_document(json.dumps(bad))

    def test_bool_is_not_an_order(self):
        with pytest.raises(DocumentError, match="'order'"):
            parse_brace_document(self.payload(order=True))

    def test_factors_must_multiply_to_order(self):
        with pytest.raises(DocumentError, match="multiply to 4"):
            parse_brace_document(self.payload(invariant_factors=[2, 2]))

    @pytest.mark.parametrize("count", [20000, 300000])
    def test_long_factor_list_stops_past_the_order(self, count):
        # the product is not formed past the order, nor printed
        text = self.payload(invariant_factors=[2] * count)
        with pytest.raises(DocumentError, match="multiply to more than 2$") as info:
            parse_brace_document(text)
        assert len(str(info.value)) < 200

    def test_product_past_64_bits_is_not_printed(self):
        big = 10**30
        text = self.payload(order=big, invariant_factors=[big, big])
        with pytest.raises(
            DocumentError, match="multiply to more than <100-bit integer>$"
        ):
            parse_brace_document(text)

    def test_factors_below_two_rejected(self):
        with pytest.raises(DocumentError, match="integers >= 2"):
            parse_brace_document(self.payload(order=2, invariant_factors=[1, 2]))

    def test_unknown_operation(self):
        with pytest.raises(DocumentError, match="'operation'"):
            parse_brace_document(self.payload(operation="cayley"))

    def test_wrong_row_count(self):
        with pytest.raises(DocumentError, match="list of 2 rows"):
            parse_brace_document(self.payload(table=[[0, 1]]))

    def test_wrong_row_length(self):
        with pytest.raises(DocumentError, match="row 1"):
            parse_brace_document(self.payload(table=[[0, 1], [1]]))

    def test_out_of_range_entry(self):
        with pytest.raises(DocumentError, match="out-of-range entry 2"):
            parse_brace_document(self.payload(table=[[0, 1], [1, 2]]))

    def test_bool_entry_rejected(self):
        with pytest.raises(DocumentError, match="out-of-range entry True"):
            parse_brace_document(self.payload(table=[[0, 1], [True, 0]]))

    def test_well_formed_but_not_a_brace(self):
        # shape-valid table whose row 1 is not a translation of a group op
        text = self.payload(
            order=3,
            invariant_factors=[3],
            table=[[0, 1, 2], [1, 0, 2], [2, 1, 0]],
        )
        doc = parse_brace_document(text)
        with pytest.raises(BraceValidationError):
            doc.to_brace()

    def test_to_brace_refuses_undersized_bound(self, census, monkeypatch):
        # the bound binds, and it is applied before any validation work
        doc = doc_of(census(8).entries[0].brace)

        def never(*args, **kwargs):
            raise AssertionError("validated a document above the bound")

        with monkeypatch.context() as patch:
            patch.setattr(documents, "validate_brace", never)
            with pytest.raises(ResourceLimitError, match="8 above configured bound 4"):
                doc.to_brace(max_order=4)
        assert doc.to_brace(max_order=8).order == 8
        assert doc.to_brace().order == 8


class TestSolutionDocuments:
    def test_round_trip(self, b4):
        sol = from_brace(b4)
        doc = SolutionDocument.from_solution(sol)
        text = serialize_solution_document(doc)
        assert parse_solution_document(text) == doc
        assert serialize_solution_document(parse_solution_document(text)) == text
        back = doc.to_solution()
        assert back.sigma == sol.sigma and back.tau == sol.tau

    def test_layout(self, triv6):
        text = serialize_solution_document(
            SolutionDocument.from_solution(from_brace(triv6))
        )
        payload = json.loads(text)
        assert list(payload) == ["type", "size", "sigma", "tau"]

    def test_parse_errors(self):
        with pytest.raises(DocumentError, match="'type'"):
            parse_solution_document('{"type": "brace"}')
        with pytest.raises(DocumentError, match="'sigma'"):
            parse_solution_document('{"type": "solution", "size": 2, "sigma": [[0, 1]], "tau": [[0, 1], [0, 1]]}')

    def test_shape_valid_but_not_a_solution(self):
        # constant-free but non-involutive pairing fails downstream, not at parse
        text = json.dumps({
            "type": "solution",
            "size": 2,
            "sigma": [[1, 0], [0, 1]],
            "tau": [[0, 1], [0, 1]],
        })
        doc = parse_solution_document(text)
        with pytest.raises(SolutionValidationError):
            doc.to_solution()

    def test_to_solution_refuses_undersized_bound(self, b4, monkeypatch):
        doc = SolutionDocument.from_solution(from_brace(b4))

        def never(*args, **kwargs):
            raise AssertionError("validated a document above the bound")

        with monkeypatch.context() as patch:
            patch.setattr(documents, "validate_solution", never)
            with pytest.raises(ResourceLimitError, match="4 above configured bound 3"):
                doc.to_solution(max_size=3)
        assert doc.to_solution(max_size=4).size == 4


class TestActionDocuments:
    def test_round_trip(self):
        doc = ActionDocument(2, 3, ((0, 1, 2), (0, 2, 1)))
        text = serialize_action_document(doc)
        assert parse_action_document(text) == doc
        assert serialize_action_document(parse_action_document(text)) == text

    def test_rows_must_be_permutations(self):
        text = json.dumps({
            "type": "action",
            "acting_order": 2,
            "target_order": 3,
            "maps": [[0, 1, 2], [0, 0, 1]],
        })
        with pytest.raises(DocumentError, match="row 1 is not a permutation"):
            parse_action_document(text)

    def test_row_length_is_target_order(self):
        text = json.dumps({
            "type": "action",
            "acting_order": 2,
            "target_order": 3,
            "maps": [[0, 1, 2], [0, 1]],
        })
        with pytest.raises(DocumentError, match="row 1"):
            parse_action_document(text)


HUGE = 10**4000  # JSON admits it; its decimal form has 4,001 digits


class TestLongIntegersInMessages:
    """A document integer past 64 bits is named by its bit length."""

    def assert_short(self, parse, payload, message):
        with pytest.raises(DocumentError, match=message) as info:
            parse(json.dumps(payload))
        assert len(str(info.value)) < 200

    def test_order_against_factors(self):
        self.assert_short(parse_brace_document, {
            "type": "brace",
            "order": HUGE,
            "invariant_factors": [HUGE, HUGE],
            "operation": "circle_table",
            "table": [],
        }, "^field 'order' is <13288-bit integer> but the invariant factors"
           " multiply to more than <13288-bit integer>$")

    def test_table_row_count(self):
        self.assert_short(parse_brace_document, {
            "type": "brace",
            "order": HUGE,
            "invariant_factors": [HUGE],
            "operation": "circle_table",
            "table": [],
        }, "^field 'table' must be a list of <13288-bit integer> rows$")

    def test_sigma_row_count(self):
        self.assert_short(parse_solution_document, {
            "type": "solution", "size": HUGE, "sigma": [], "tau": [],
        }, "^field 'sigma' must be a list of <13288-bit integer> rows$")

    def test_maps_row_count(self):
        self.assert_short(parse_action_document, {
            "type": "action", "acting_order": HUGE, "target_order": 2, "maps": [],
        }, "^field 'maps' must be a list of <13288-bit integer> rows$")

    def test_entry_and_negative_field(self):
        self.assert_short(parse_solution_document, {
            "type": "solution", "size": 1, "sigma": [[HUGE]], "tau": [[0]],
        }, "out-of-range entry <13288-bit integer>$")
        self.assert_short(parse_solution_document, {
            "type": "solution", "size": -HUGE,
        }, "got -<13288-bit integer>$")


LONG = "x" * 100_000
ONE_POINT = {
    "type": "brace", "order": 1, "invariant_factors": [],
    "operation": "circle_table", "table": [[0]],
}
LONG_VALUE_DOCUMENTS = [
    pytest.param(
        {"type": "brace", "order": [0] * 100_000},
        "^field 'order' must be an integer >= 1, got a list of length 100000$",
        id="order",
    ),
    pytest.param(
        {"type": LONG}, "^field 'type' must be 'brace', got a str of length 100000$",
        id="type",
    ),
    pytest.param(
        {**ONE_POINT, "table": [[LONG]]},
        "^field 'table' row 0 has out-of-range entry a str of length 100000$",
        id="table-entry",
    ),
    pytest.param(
        {**ONE_POINT, "operation": LONG},
        r"^field 'operation' must be one of \('circle_table', 'lambda_table'\),"
        " got a str of length 100000$",
        id="operation",
    ),
]


class TestLongValuesInMessages:
    """A value whose repr passes 80 characters is named by type and length."""

    @pytest.mark.parametrize("payload, message", LONG_VALUE_DOCUMENTS)
    def test_message_is_bounded(self, payload, message):
        with pytest.raises(DocumentError, match=message) as info:
            parse_brace_document(json.dumps(payload))
        assert len(str(info.value)) < 200

    @pytest.mark.parametrize("payload, message", LONG_VALUE_DOCUMENTS)
    def test_cli_exits_2_with_a_short_message(self, tmp_path, capsys, payload, message):
        from bracelab.cli import main

        path = tmp_path / "long.json"
        path.write_text(json.dumps(payload))
        assert main(["validate", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: field ")
        assert len(captured.err) < 200
        assert captured.out == ""

    @pytest.mark.parametrize(
        "value, quoted",
        [
            ("x", "'x'"),
            ("x" * 78, repr("x" * 78)),
            ("x" * 79, "a str of length 79"),
            ([1.5, None, True], "[1.5, None, True]"),
            (list(range(100)), "a list of length 100"),
            ({"k": "v" * 100}, "a dict of length 1"),
        ],
        ids=["str", "str-repr-80", "str-repr-81", "list", "long-list", "dict"],
    )
    def test_short_values_keep_their_repr(self, value, quoted):
        with pytest.raises(DocumentError) as info:
            parse_brace_document(json.dumps({"type": value}))
        assert str(info.value) == f"field 'type' must be 'brace', got {quoted}"


class TestHandBuiltDocuments:
    """Documents built in Python rather than parsed: the readers name a bad
    entry as the validators do, not by the error bytes() raises on it."""

    @pytest.mark.parametrize(
        "operation, table, message",
        [
            ("circle_table", ((0, -1), (1, 0)), "circle table entry [0][1] = -1 out of range"),
            ("circle_table", ((0, 1.0), (1, 0)), "circle table entry [0][1] = 1.0 out of range"),
            ("circle_table", ((0, 1), (300, 0)), "circle table entry [1][0] = 300 out of range"),
            ("lambda_table", ((0, 7), (1, 0)), "lambda table entry [0][1] = 7 out of range"),
            # a negative entry would index the addition row from its end
            ("lambda_table", ((0, 1), (-1, 1)), "lambda table entry [1][0] = -1 out of range"),
            ("lambda_table", ((0, 1), (0, "1")), "lambda table entry [1][1] = '1' out of range"),
            ("lambda_table", ((0, 1),), "lambda table must be 2x2"),
            # past the interpreter's digit limit repr() raises ValueError
            (
                "circle_table",
                ((0, 10**5000), (1, 0)),
                "circle table entry [0][1] = <16610-bit integer> out of range",
            ),
            (
                "lambda_table",
                ((0, 10**5000), (1, 0)),
                "lambda table entry [0][1] = <16610-bit integer> out of range",
            ),
        ],
    )
    def test_brace_entries(self, operation, table, message):
        doc = BraceDocument(2, (2,), operation, table)
        with pytest.raises(InvalidPresentationError) as info:
            doc.to_brace()
        assert str(info.value) == message

    def test_lambda_table_reads_as_the_circle_table(self, census):
        for brace in census(8).classes:
            doc = doc_of(brace, "lambda_table")
            hand = BraceDocument(doc.order, doc.invariant_factors, doc.operation, doc.table)
            assert hand.to_brace() == brace

    @pytest.mark.parametrize("entry", [300, -1, 1.0])
    def test_solution_entries(self, entry):
        doc = SolutionDocument(2, ((0, entry), (0, 1)), ((0, 0), (1, 1)))
        with pytest.raises(InvalidPresentationError) as info:
            doc.to_solution()
        assert str(info.value) == f"sigma row 0 has out-of-range entry {entry!r}"


class Level(enum.IntEnum):
    LOW = 0
    HIGH = 1


class TestIntSubclassEntries:
    """Every entry is written as its integer value, whatever its int type."""

    def round_trip(self, sigma, tau):
        doc = SolutionDocument.from_solution(validate_solution(2, sigma, tau))
        text = serialize_solution_document(doc)
        back = parse_solution_document(text)
        assert back == doc
        assert serialize_solution_document(back) == text
        return text

    def test_bool_entries(self):
        rows = ((False, True), (False, True))
        text = self.round_trip(rows, rows)
        assert "true" not in text and "false" not in text
        # the only bytes that differ from the json.dumps layout
        doc = parse_solution_document(text)
        assert text == oracle_serialize_solution(doc)

    def test_int_enum_entries(self):
        rows = ((Level.LOW, Level.HIGH), (Level.LOW, Level.HIGH))
        text = self.round_trip(rows, rows)
        sol = validate_solution(2, rows, rows)
        assert text == oracle_serialize_solution(SolutionDocument.from_solution(sol))


def files_64_products(seed):
    """The products of the files-64 benchmark op mix at one seed: 9
    semidirect products of two order-8 braces, 9 of an order-6 and an
    order-8 brace, and 2 wreath products of the order-2 brace by an
    order-4 top, paired as the benchmark pairs them."""
    pools = {n: enumerate_braces(n).classes for n in (2, 4, 6, 8)}
    rng = random.Random(seed)
    eights = rng.sample(pools[8], 27)
    products = [semidirect(eights.pop(), eights.pop()) for _ in range(9)]
    for i, eight in enumerate(eights):
        pair = [pools[6][i % len(pools[6])], eight]
        rng.shuffle(pair)
        products.append(semidirect(*pair))
    for top in rng.sample(pools[4], 2):
        products.append(wreath(pools[2][0], top))
    return products


def assert_like_oracle(braces):
    for brace in braces:
        for op in ("circle_table", "lambda_table"):
            doc = doc_of(brace, op)
            assert serialize_brace_document(doc) == oracle_serialize_brace(doc)
        doc = SolutionDocument.from_solution(from_brace(brace))
        assert serialize_solution_document(doc) == oracle_serialize_solution(doc)


class TestLayoutAgainstOracle:
    """The layout writer gives the bytes of json.dumps(payload, indent=2)."""

    @pytest.mark.parametrize(
        "order",
        [n if n != 16 else pytest.param(16, marks=pytest.mark.slow) for n in range(1, 25)],
    )
    def test_census_classes_and_solutions(self, census, order):
        assert_like_oracle(census(order).classes)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_files_64_products(self, seed):
        products = files_64_products(seed)
        assert sorted(p.order for p in products) == [48] * 9 + [64] * 11
        assert_like_oracle(products)

    def test_action_documents(self):
        for n in range(1, 13):
            for factors in abelian_group_types(n):
                maps = tuple(sorted(automorphism_group(make_group(factors)).elements))
                doc = ActionDocument(len(maps), n, maps)
                text = serialize_action_document(doc)
                assert text == oracle_serialize_action(doc)
                assert parse_action_document(text) == doc

    def test_empty_lists_and_escapes(self):
        doc = BraceDocument(1, (), "circle\"\u00e9", ((0,),))
        assert serialize_brace_document(doc) == oracle_serialize_brace(doc)

    @pytest.mark.parametrize("seed", range(1, 7))
    def test_random_rectangular_tables(self, seed):
        # every digit count, from 1 x 1 up to 70 x 70 and not square
        rng = random.Random(seed)
        edges = (0, 9, 10, 99, 100, 255)
        entry = lambda: rng.choice(edges) if rng.random() < 0.3 else rng.randrange(256)
        for _ in range(50):
            rows, cols = rng.randint(1, 70), rng.randint(1, 70)
            table = tuple(tuple(entry() for _ in range(cols)) for _ in range(rows))
            doc = BraceDocument(rows, (rows,), "circle_table", table)
            assert serialize_brace_document(doc) == oracle_serialize_brace(doc)

    @pytest.mark.parametrize(
        "table",
        [
            ((0,),),
            ((255,),),
            ((0, 9, 10), (99, 100, 255)),
            ((1, 2, 3), (4,), (5, 6)),
            ((), (1,)),
            ((1,), ()),
            ((),),
            ((0, 256), (1, 2)),
            ((-1, 0),),
            ((10**20, 5),),
        ],
        ids=["0", "255", "digits", "ragged", "empty-first", "empty-last", "empty-only", "256", "negative", "long"],
    )
    def test_edge_tables(self, table):
        doc = BraceDocument(len(table), (2,), "circle_table", table)
        assert serialize_brace_document(doc) == oracle_serialize_brace(doc)

    def test_bool_and_int_enum_entries_written_as_ints(self):
        table = ((True, False, Level.HIGH), (Level.LOW, 7, True))
        as_ints = tuple(tuple(map(int, row)) for row in table)
        doc = BraceDocument(2, (2,), "circle_table", table)
        text = oracle_serialize_brace(BraceDocument(2, (2,), "circle_table", as_ints))
        assert serialize_brace_document(doc) == text

    @pytest.mark.parametrize("table", [((1.0,),), ((0, 1), (2.5, 3)), ((0, 300), (1.0, 2))])
    def test_float_entry_raises(self, table):
        with pytest.raises(TypeError):
            serialize_brace_document(BraceDocument(2, (2,), "circle_table", table))


def malformed_rows(rows, cols, limit):
    """Lists of rows, mostly well formed, with the defects a document can
    carry: bools, negatives, entries at or past the limit, floats, nested
    lists, short or long rows, rows that are not lists, a wrong row count."""
    entry = st.one_of(
        st.integers(min_value=0, max_value=limit - 1),
        st.integers(min_value=0, max_value=limit - 1),
        st.booleans(),
        st.integers(min_value=-3, max_value=-1),
        st.integers(min_value=limit, max_value=limit + 3),
        st.floats(min_value=0, max_value=limit, allow_nan=False),
        st.lists(st.integers(min_value=0, max_value=limit - 1), max_size=2),
        st.none(),
    )
    good = st.integers(min_value=0, max_value=limit - 1)
    row = st.one_of(
        st.lists(good, min_size=cols, max_size=cols),
        st.lists(st.one_of(good, good, good, entry), min_size=cols, max_size=cols),
        st.lists(good, max_size=cols + 1),
        st.one_of(st.integers(0, 3), st.none(), st.text(max_size=2), st.dictionaries(st.text(max_size=1), good, max_size=1)),
    )
    return st.one_of(
        st.lists(row, min_size=rows, max_size=rows),
        st.lists(row, max_size=rows + 1),
        st.none(),
    )


@st.composite
def row_fields(draw):
    rows = draw(st.integers(min_value=1, max_value=4))
    cols = draw(st.integers(min_value=1, max_value=4))
    limit = draw(st.integers(min_value=1, max_value=256))
    return rows, cols, limit, draw(malformed_rows(rows, cols, limit))


def test_rows_that_pass_the_scan_are_an_internal_error():
    # a list subclass fails the exact type test but not isinstance; JSON
    # never yields one, so a scan that finds nothing is this package's fault
    class Row(list):
        pass

    with pytest.raises(InternalCheckError, match="fails the row test"):
        documents._get_rows({"table": [Row([0])]}, "table", 1, 1, 1)


def test_limit_past_table_order_refused_once_shape_passes():
    n = MAX_TABLE_ORDER + 1
    payload = {"type": "action", "acting_order": 1, "target_order": n}
    with pytest.raises(ResourceLimitError, match="^order 257 above 256, the largest order"):
        parse_action_document(json.dumps({**payload, "maps": [list(range(n))]}))
    with pytest.raises(DocumentError, match="^field 'maps' row 0 must be a list of 257 entries$"):
        parse_action_document(json.dumps({**payload, "maps": [[0]]}))


@settings(max_examples=400, deadline=None)
@given(row_fields())
def test_rows_like_oracle(case):
    """The set-based row test returns the rows, or raises the message, that
    the entry-by-entry oracle does."""
    rows, cols, limit, value = case
    payload = {"table": value}

    def outcome(get_rows):
        try:
            return get_rows(payload, "table", rows, cols, limit)
        except DocumentError as exc:
            return str(exc)

    assert outcome(documents._get_rows) == outcome(oracle_get_rows)
