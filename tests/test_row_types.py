"""One stored row type, and the messages of hand-built tables.

Every circle, sigma and tau table, every document table and the maps of
every validated action are a tuple of bytes rows, whichever layer made
them; a bytes row never equals a tuple row, so a table of the other type
would make equality false without an error.  Group elements stay tuples:
automorphisms and the elements of closure.  A brace, solution or document
built by hand with tuple rows holding one bad entry gets the error it got
when every table was stored as tuples of ints.
"""

import pytest

from bracelab.abelian import automorphism_group, closure, make_group
from bracelab.brace import LeftBrace, validate_brace
from bracelab.documents import (
    BraceDocument,
    SolutionDocument,
    parse_action_document,
    parse_brace_document,
    parse_solution_document,
    serialize_brace_document,
    serialize_solution_document,
)
from bracelab.errors import (
    CircleAssociativityError,
    CircleIdentityError,
    InvalidPresentationError,
    NonDegeneracyError,
)
from bracelab.products import make_action, semidirect, wreath
from bracelab.solutions import (
    SetTheoreticSolution,
    from_brace,
    retract_solution,
    validate_solution,
)
from brace_oracle import circle_group


def assert_byte_rows(rows, n):
    assert type(rows) is tuple and len(rows) == n
    assert all(type(row) is bytes and len(row) == n for row in rows)


def assert_solution_rows(solution):
    assert_byte_rows(solution.sigma, solution.size)
    assert_byte_rows(solution.tau, solution.size)


def assert_derived_brace_rows(brace):
    """The brace, and the braces LeftBrace._induced makes from it: its
    canonical form, its retraction tower and its Sylow components."""
    braces = [brace, brace.canonical_form()]
    stage = brace
    while stage.order > 1 and not stage.socle().is_zero():
        stage = stage.retract_quotient()
        braces.append(stage)
    braces.extend(component.brace for component in brace.sylow_components())
    for each in braces:
        assert_byte_rows(each.circle_table, each.order)
    return braces


def test_validated_and_census_braces(census):
    table = tuple(tuple((a + b + 2 * a * b) % 4 for b in range(4)) for a in range(4))
    for rows in (table, [list(row) for row in table], tuple(map(bytes, table))):
        assert_derived_brace_rows(validate_brace(make_group((4,)), rows))
    assert_derived_brace_rows(LeftBrace.trivial(make_group((2, 3))))
    for order in (1, 2, 6, 8, 12):
        for brace in census(order).classes:
            assert_derived_brace_rows(brace)


def test_product_braces(census):
    two, four, six, eight = (census(n).classes for n in (2, 4, 6, 8))
    # additive factors (6, 2, 2, 2) and (2, 4, 2): canonical_form relabels
    for product in (semidirect(six[1], eight[7]), semidirect(eight[12], two[0])):
        braces = assert_derived_brace_rows(product)
        assert braces[1] is not product
    assert_derived_brace_rows(wreath(two[0], four[3]))


def test_solutions(census):
    for brace in census(8).classes:
        solution = from_brace(brace)
        while True:
            assert_solution_rows(solution)
            assert_solution_rows(validate_solution(solution.size, solution.sigma, solution.tau))
            retract = retract_solution(solution)
            if retract.size == solution.size:
                break
            solution = retract
    # tuple and list rows, validated or built by hand
    flip = ((1, 0), (1, 0))
    assert_solution_rows(validate_solution(2, flip, [[1, 0], [1, 0]]))
    assert_solution_rows(retract_solution(SetTheoreticSolution(2, flip, flip)))


def test_documents(census):
    brace = semidirect(census(6).classes[1], census(8).classes[7])
    for operation in ("circle_table", "lambda_table"):
        doc = BraceDocument.from_brace(brace, operation)
        assert_byte_rows(doc.table, 48)
        parsed = parse_brace_document(serialize_brace_document(doc))
        assert_byte_rows(parsed.table, 48)
        assert parsed == doc
        assert parsed.to_brace() == brace.canonical_form()
    solution = from_brace(brace)
    doc = SolutionDocument.from_solution(solution)
    parsed = parse_solution_document(serialize_solution_document(doc))
    assert_byte_rows(parsed.sigma, 48)
    assert_byte_rows(parsed.tau, 48)
    # to_solution hands back the validator's solution, on the document's rows
    assert parsed.to_solution() == solution
    action = parse_action_document(
        '{"type": "action", "acting_order": 2, "target_order": 3, "maps": [[0, 1, 2], [0, 2, 1]]}'
    )
    assert action.maps == (bytes((0, 1, 2)), bytes((0, 2, 1)))


def test_action_maps():
    # make_action hands back byte rows, and semidirect builds one brace from
    # tuple rows, list rows and an action document's rows
    z2, z3 = (LeftBrace.trivial(make_group((n,))) for n in (2, 3))
    negation = ((0, 1, 2), (0, 2, 1))
    maps = make_action(z2, z3, negation)
    assert type(maps) is tuple and all(type(row) is bytes for row in maps)
    assert maps == (bytes((0, 1, 2)), bytes((0, 2, 1)))
    doc = parse_action_document(
        '{"type": "action", "acting_order": 2, "target_order": 3, "maps": [[0, 1, 2], [0, 2, 1]]}'
    )
    built = [semidirect(z3, z2, rows) for rows in (negation, [list(m) for m in negation], doc.maps)]
    assert built[0] == built[1] == built[2] != semidirect(z3, z2)
    assert_derived_brace_rows(built[0])


def test_group_elements_stay_tuples(census):
    brace = census(8).classes[5]
    groups = [
        automorphism_group(make_group((2, 4))),
        circle_group(brace),
        closure(8, brace.circle_table),
        closure(8, [tuple(row) for row in brace.circle_table]),
        closure(8, set(from_brace(brace).sigma)),
    ]
    for group in groups:
        assert group.elements
        assert all(type(p) is tuple for p in group.elements)
    assert groups[1] == groups[2] == groups[3]
    assert brace.lambda_row(3) == tuple(brace._lambda_rows[3])
    assert all(type(row) is tuple for row in brace.dot_table)


BAD = {"float": 1.5, "str": "1", "negative": -1, "byte": 256, "huge": 10**20, "true": True, "false": False}
CIRCLE = tuple(tuple((a + b) % 4 for b in range(4)) for a in range(4))
IDENT = (tuple(range(4)),) * 4
GROUP = make_group((4,))

# each table's routes: its validator, then the document route to it
ROUTES = {
    "circle": [
        lambda rows: validate_brace(GROUP, rows(CIRCLE)),
        lambda rows: BraceDocument(4, (4,), "circle_table", rows(CIRCLE)).to_brace(),
    ],
    "lambda": [lambda rows: BraceDocument(4, (4,), "lambda_table", rows(IDENT)).to_brace()],
    "sigma": [
        lambda rows: validate_solution(4, rows(IDENT), IDENT),
        lambda rows: SolutionDocument(4, rows(IDENT), IDENT).to_solution(),
    ],
    "tau": [
        lambda rows: validate_solution(4, IDENT, rows(IDENT)),
        lambda rows: SolutionDocument(4, IDENT, rows(IDENT)).to_solution(),
    ],
}

# (table, position of the bad entry, bad value) -> the error on every route,
# or None where the table is accepted, as each route raised it when tables
# were stored as tuples of ints.  One exception: a circle-table document
# with a bool in row 0 or column 0 then went through bytes() first, so its
# identity error named 1 or 0 ("0 o 2 = 1, but ..."); it now names the
# entry as given, True or False, as validate_brace on the same rows did.
PINNED = {
    ('circle', (2, 1), 'float'): (InvalidPresentationError, 'circle table entry [2][1] = 1.5 out of range'),
    ('circle', (2, 1), 'str'): (InvalidPresentationError, "circle table entry [2][1] = '1' out of range"),
    ('circle', (2, 1), 'negative'): (InvalidPresentationError, 'circle table entry [2][1] = -1 out of range'),
    ('circle', (2, 1), 'byte'): (InvalidPresentationError, 'circle table entry [2][1] = 256 out of range'),
    ('circle', (2, 1), 'huge'): (InvalidPresentationError, 'circle table entry [2][1] = <67-bit integer> out of range'),
    ('circle', (2, 1), 'true'): (CircleAssociativityError, '(1 o 1) o 1 != 1 o (1 o 1)'),
    ('circle', (2, 1), 'false'): (CircleAssociativityError, '(1 o 1) o 1 != 1 o (1 o 1)'),
    ('circle', (0, 2), 'float'): (InvalidPresentationError, 'circle table entry [0][2] = 1.5 out of range'),
    ('circle', (0, 2), 'str'): (InvalidPresentationError, "circle table entry [0][2] = '1' out of range"),
    ('circle', (0, 2), 'negative'): (InvalidPresentationError, 'circle table entry [0][2] = -1 out of range'),
    ('circle', (0, 2), 'byte'): (InvalidPresentationError, 'circle table entry [0][2] = 256 out of range'),
    ('circle', (0, 2), 'huge'): (InvalidPresentationError, 'circle table entry [0][2] = <67-bit integer> out of range'),
    ('circle', (0, 2), 'true'): (CircleIdentityError, '0 o 2 = True, but 0 must be a left identity'),
    ('circle', (0, 2), 'false'): (CircleIdentityError, '0 o 2 = False, but 0 must be a left identity'),
    ('circle', (3, 0), 'float'): (InvalidPresentationError, 'circle table entry [3][0] = 1.5 out of range'),
    ('circle', (3, 0), 'str'): (InvalidPresentationError, "circle table entry [3][0] = '1' out of range"),
    ('circle', (3, 0), 'negative'): (InvalidPresentationError, 'circle table entry [3][0] = -1 out of range'),
    ('circle', (3, 0), 'byte'): (InvalidPresentationError, 'circle table entry [3][0] = 256 out of range'),
    ('circle', (3, 0), 'huge'): (InvalidPresentationError, 'circle table entry [3][0] = <67-bit integer> out of range'),
    ('circle', (3, 0), 'true'): (CircleIdentityError, '3 o 0 = True, but 0 must be a right identity'),
    ('circle', (3, 0), 'false'): (CircleIdentityError, '3 o 0 = False, but 0 must be a right identity'),
    ('lambda', (2, 1), 'float'): (InvalidPresentationError, 'lambda table entry [2][1] = 1.5 out of range'),
    ('lambda', (2, 1), 'str'): (InvalidPresentationError, "lambda table entry [2][1] = '1' out of range"),
    ('lambda', (2, 1), 'negative'): (InvalidPresentationError, 'lambda table entry [2][1] = -1 out of range'),
    ('lambda', (2, 1), 'byte'): (InvalidPresentationError, 'lambda table entry [2][1] = 256 out of range'),
    ('lambda', (2, 1), 'huge'): (InvalidPresentationError, 'lambda table entry [2][1] = <67-bit integer> out of range'),
    ('lambda', (2, 1), 'true'): None,
    ('lambda', (2, 1), 'false'): (CircleAssociativityError, '(1 o 1) o 1 != 1 o (1 o 1)'),
    ('lambda', (0, 2), 'float'): (InvalidPresentationError, 'lambda table entry [0][2] = 1.5 out of range'),
    ('lambda', (0, 2), 'str'): (InvalidPresentationError, "lambda table entry [0][2] = '1' out of range"),
    ('lambda', (0, 2), 'negative'): (InvalidPresentationError, 'lambda table entry [0][2] = -1 out of range'),
    ('lambda', (0, 2), 'byte'): (InvalidPresentationError, 'lambda table entry [0][2] = 256 out of range'),
    ('lambda', (0, 2), 'huge'): (InvalidPresentationError, 'lambda table entry [0][2] = <67-bit integer> out of range'),
    ('lambda', (0, 2), 'true'): (CircleIdentityError, '0 o 2 = 1, but 0 must be a left identity'),
    ('lambda', (0, 2), 'false'): (CircleIdentityError, '0 o 2 = 0, but 0 must be a left identity'),
    ('lambda', (3, 0), 'float'): (InvalidPresentationError, 'lambda table entry [3][0] = 1.5 out of range'),
    ('lambda', (3, 0), 'str'): (InvalidPresentationError, "lambda table entry [3][0] = '1' out of range"),
    ('lambda', (3, 0), 'negative'): (InvalidPresentationError, 'lambda table entry [3][0] = -1 out of range'),
    ('lambda', (3, 0), 'byte'): (InvalidPresentationError, 'lambda table entry [3][0] = 256 out of range'),
    ('lambda', (3, 0), 'huge'): (InvalidPresentationError, 'lambda table entry [3][0] = <67-bit integer> out of range'),
    ('lambda', (3, 0), 'true'): (CircleIdentityError, '3 o 0 = 0, but 0 must be a right identity'),
    ('lambda', (3, 0), 'false'): None,
    ('sigma', (2, 1), 'float'): (InvalidPresentationError, 'sigma row 2 has out-of-range entry 1.5'),
    ('sigma', (2, 1), 'str'): (InvalidPresentationError, "sigma row 2 has out-of-range entry '1'"),
    ('sigma', (2, 1), 'negative'): (InvalidPresentationError, 'sigma row 2 has out-of-range entry -1'),
    ('sigma', (2, 1), 'byte'): (InvalidPresentationError, 'sigma row 2 has out-of-range entry 256'),
    ('sigma', (2, 1), 'huge'): (InvalidPresentationError, 'sigma row 2 has out-of-range entry <67-bit integer>'),
    ('sigma', (2, 1), 'true'): None,
    ('sigma', (2, 1), 'false'): (NonDegeneracyError, 'sigma map of 2 is not a bijection'),
    ('sigma', (0, 2), 'float'): (InvalidPresentationError, 'sigma row 0 has out-of-range entry 1.5'),
    ('sigma', (0, 2), 'str'): (InvalidPresentationError, "sigma row 0 has out-of-range entry '1'"),
    ('sigma', (0, 2), 'negative'): (InvalidPresentationError, 'sigma row 0 has out-of-range entry -1'),
    ('sigma', (0, 2), 'byte'): (InvalidPresentationError, 'sigma row 0 has out-of-range entry 256'),
    ('sigma', (0, 2), 'huge'): (InvalidPresentationError, 'sigma row 0 has out-of-range entry <67-bit integer>'),
    ('sigma', (0, 2), 'true'): (NonDegeneracyError, 'sigma map of 0 is not a bijection'),
    ('sigma', (0, 2), 'false'): (NonDegeneracyError, 'sigma map of 0 is not a bijection'),
    ('sigma', (3, 0), 'float'): (InvalidPresentationError, 'sigma row 3 has out-of-range entry 1.5'),
    ('sigma', (3, 0), 'str'): (InvalidPresentationError, "sigma row 3 has out-of-range entry '1'"),
    ('sigma', (3, 0), 'negative'): (InvalidPresentationError, 'sigma row 3 has out-of-range entry -1'),
    ('sigma', (3, 0), 'byte'): (InvalidPresentationError, 'sigma row 3 has out-of-range entry 256'),
    ('sigma', (3, 0), 'huge'): (InvalidPresentationError, 'sigma row 3 has out-of-range entry <67-bit integer>'),
    ('sigma', (3, 0), 'true'): (NonDegeneracyError, 'sigma map of 3 is not a bijection'),
    ('sigma', (3, 0), 'false'): None,
    ('tau', (2, 1), 'float'): (InvalidPresentationError, 'tau row 2 has out-of-range entry 1.5'),
    ('tau', (2, 1), 'str'): (InvalidPresentationError, "tau row 2 has out-of-range entry '1'"),
    ('tau', (2, 1), 'negative'): (InvalidPresentationError, 'tau row 2 has out-of-range entry -1'),
    ('tau', (2, 1), 'byte'): (InvalidPresentationError, 'tau row 2 has out-of-range entry 256'),
    ('tau', (2, 1), 'huge'): (InvalidPresentationError, 'tau row 2 has out-of-range entry <67-bit integer>'),
    ('tau', (2, 1), 'true'): None,
    ('tau', (2, 1), 'false'): (NonDegeneracyError, 'tau map of 2 is not a bijection'),
    ('tau', (0, 2), 'float'): (InvalidPresentationError, 'tau row 0 has out-of-range entry 1.5'),
    ('tau', (0, 2), 'str'): (InvalidPresentationError, "tau row 0 has out-of-range entry '1'"),
    ('tau', (0, 2), 'negative'): (InvalidPresentationError, 'tau row 0 has out-of-range entry -1'),
    ('tau', (0, 2), 'byte'): (InvalidPresentationError, 'tau row 0 has out-of-range entry 256'),
    ('tau', (0, 2), 'huge'): (InvalidPresentationError, 'tau row 0 has out-of-range entry <67-bit integer>'),
    ('tau', (0, 2), 'true'): (NonDegeneracyError, 'tau map of 0 is not a bijection'),
    ('tau', (0, 2), 'false'): (NonDegeneracyError, 'tau map of 0 is not a bijection'),
    ('tau', (3, 0), 'float'): (InvalidPresentationError, 'tau row 3 has out-of-range entry 1.5'),
    ('tau', (3, 0), 'str'): (InvalidPresentationError, "tau row 3 has out-of-range entry '1'"),
    ('tau', (3, 0), 'negative'): (InvalidPresentationError, 'tau row 3 has out-of-range entry -1'),
    ('tau', (3, 0), 'byte'): (InvalidPresentationError, 'tau row 3 has out-of-range entry 256'),
    ('tau', (3, 0), 'huge'): (InvalidPresentationError, 'tau row 3 has out-of-range entry <67-bit integer>'),
    ('tau', (3, 0), 'true'): (NonDegeneracyError, 'tau map of 3 is not a bijection'),
    ('tau', (3, 0), 'false'): None,
}


@pytest.mark.parametrize(
    "table, at, bad", list(PINNED), ids=[f"{t}-{a}{b}-{v}" for t, (a, b), v in PINNED]
)
def test_hand_built_messages_are_pinned(table, at, bad):
    def spoiled(rows):
        rows = [list(row) for row in rows]
        rows[at[0]][at[1]] = BAD[bad]
        return tuple(map(tuple, rows))

    want = PINNED[table, at, bad]
    for call in ROUTES[table]:
        if want is None:
            call(spoiled)
            continue
        with pytest.raises(want[0]) as info:
            call(spoiled)
        assert type(info.value) is want[0]
        assert str(info.value) == want[1]
