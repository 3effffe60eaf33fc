"""Fuzzed inputs: document parsers and the command line.

A parser returns a document or raises DocumentError, whatever the text.
main() returns a documented exit code for any argument list built from the
real subcommands and flags, and lets no exception escape.
"""

import contextlib
import io
import json
import os
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bracelab import (
    BraceDocument,
    LeftBrace,
    SolutionDocument,
    make_group,
    serialize_brace_document,
    serialize_solution_document,
)
from bracelab.cli import main
from bracelab.documents import (
    ActionDocument,
    parse_action_document,
    parse_brace_document,
    parse_solution_document,
    serialize_action_document,
)
from bracelab.errors import DocumentError
from bracelab.solutions import from_brace
from conftest import cyclic_brace

PARSERS = {
    "brace": (parse_brace_document, BraceDocument),
    "solution": (parse_solution_document, SolutionDocument),
    "action": (parse_action_document, ActionDocument),
}

FIELDS = [
    "type", "order", "invariant_factors", "operation", "table",
    "size", "sigma", "tau", "acting_order", "target_order", "maps",
]

small_ints = st.integers(min_value=-2, max_value=5)
json_values = st.recursive(
    st.none() | st.booleans() | small_ints | st.floats(allow_nan=False)
    | st.sampled_from(["brace", "solution", "action", "circle_table", "lambda_table"]),
    lambda inner: st.lists(inner, max_size=5),
    max_leaves=30,
)
near_documents = st.dictionaries(st.sampled_from(FIELDS), json_values, max_size=8)


B4 = cyclic_brace(4, 2)
VALID_TEXTS = {
    "b4.json": serialize_brace_document(BraceDocument.from_brace(B4)),
    "b4-lambda.json": serialize_brace_document(BraceDocument.from_brace(B4, "lambda_table")),
    "s4.json": serialize_solution_document(SolutionDocument.from_solution(from_brace(B4))),
    "a2on4.json": serialize_action_document(ActionDocument(2, 4, ((0, 1, 2, 3),) * 2)),
}


def assert_document_or_error(kind: str, text: str) -> None:
    parse, document = PARSERS[kind]
    try:
        result = parse(text)
    except DocumentError:
        return
    assert isinstance(result, document)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(PARSERS)), st.text(max_size=200))
def test_parsers_on_arbitrary_text(kind, text):
    assert_document_or_error(kind, text)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(PARSERS)), near_documents)
def test_parsers_on_near_documents(kind, payload):
    assert_document_or_error(kind, json.dumps(payload))


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(sorted(PARSERS)),
    st.sampled_from(sorted(VALID_TEXTS.values())),
    st.lists(
        st.tuples(st.integers(min_value=0, max_value=400), st.text(max_size=3)),
        min_size=1,
        max_size=4,
    ),
)
def test_parsers_on_mutated_documents(kind, text, edits):
    for position, replacement in edits:
        position %= len(text)
        text = text[:position] + replacement + text[position + 1 :]
    assert_document_or_error(kind, text)


@pytest.fixture(scope="module")
def paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    no_inverse = BraceDocument(4, (4,), "circle_table", ((0, 1, 2, 3),) + ((1,) * 4,) * 3)
    texts = {
        **VALID_TEXTS,
        "t2.json": serialize_brace_document(
            BraceDocument.from_brace(LeftBrace.trivial(make_group((2,))))
        ),
        "t16.json": serialize_brace_document(
            BraceDocument.from_brace(LeftBrace.trivial(make_group((16,))))
        ),
        "no-inverse.json": serialize_brace_document(no_inverse),
        "garbage.json": "{not json",
    }
    for name, text in texts.items():
        (root / name).write_text(text)
    files = [str(root / name) for name in texts]
    files += [str(root / "missing.json"), str(root)]
    return {"files": files, "out": str(root / "out")}


NUMBERS = ["-1", "0", "1", "4", "6", "12", "13", "32", "257", "1000000000", "x"]


@st.composite
def argvs(draw, files, out):
    file = st.sampled_from(files)
    number = st.sampled_from(NUMBERS)
    command = draw(st.sampled_from([
        ["validate", draw(file)],
        ["analyze", draw(file)] + draw(st.sampled_from([[], ["--json"]])),
        ["enumerate", "--order", draw(number)]
        + draw(st.sampled_from([[], ["--out", out]])),
        ["solution", "from-brace", draw(file)],
        ["solution", "check", draw(file)],
        ["solution", "retract", draw(file)] + draw(st.sampled_from([[], ["--tower"]])),
        ["product", "semidirect", draw(file), draw(file)]
        + draw(st.sampled_from([[], ["--action", draw(file)]])),
        ["product", "wreath", draw(file), draw(file)],
        ["verify", "--order-max", draw(number)],
    ]))
    if draw(st.booleans()):
        # drop or insert one token to reach the usage errors
        tokens = ["--json", "--tower", "--order", "--slow", "extra", draw(number)]
        position = draw(st.integers(min_value=0, max_value=len(command)))
        action = draw(st.sampled_from(["drop", "insert"]))
        if action == "drop" and position < len(command):
            command = command[:position] + command[position + 1 :]
        else:
            command = command[:position] + [draw(st.sampled_from(tokens))] + command[position:]
    return command


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_main_exit_codes(paths, data):
    argv = data.draw(argvs(paths["files"], paths["out"]))
    stdout, stderr = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, {"BRACELAB_MAX_ORDER": "12"}):
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(argv)
    assert code in {0, 1, 2, 3, 4}, (argv, stderr.getvalue())
    assert "Traceback" not in stderr.getvalue()
