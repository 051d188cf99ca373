"""Term text to diagram: pinned outputs and error positions of the front end."""

from __future__ import annotations

import hashlib
import random
import re

import pytest

from test_normalform import LADDER_RUNGS
from test_term import random_term
from zwcalc.errors import TermSyntaxError, ZWError
from zwcalc.jsonio import diagram_to_json
from zwcalc.term import from_term, parse_term, term_to_text

#: sha256 of ``front_end_outcome`` over ``front_end_texts()``, computed with
#: the recursive-descent parser and the segment resolver that came before
#: the one-pass parser and the wire-end linker.
FRONT_END_DIGEST = "03f75d1510204d446390cb37acb673e83055b9169bd635a6ebb9533b63a4e7f4"

#: (name, source, message, line, column) of each syntax error, as the
#: recursive-descent parser reported them.
SYNTAX_ERRORS = [
    ("unclosed-paren", "(w(1,2) ; x", "expected ')', found 'end of input' (line 1, column 12)", 1, 12),
    ("stray-paren", "id ; x)", "expected 'end', found ')' (line 1, column 7)", 1, 7),
    ("missing-nat", "w(1,)", "expected 'nat', found ')' (line 1, column 5)", 1, 5),
    ("unclosed-args", "w(1,2", "expected ')', found 'end of input' (line 1, column 6)", 1, 6),
    ("missing-comma", "z(1 2)", "expected ',', found '2' (line 1, column 5)", 1, 5),
    ("empty", "", "expected a term, found 'end of input' (line 1, column 1)", 1, 1),
    ("blank-lines", " \n\t\r\n", "expected a term, found 'end of input' (line 3, column 1)", 3, 1),
    ("trailing-seq", "w(1,2) ;", "expected a term, found 'end of input' (line 1, column 9)", 1, 9),
    ("doubled-par", "x * * x", "expected a term, found '*' (line 1, column 5)", 1, 5),
    ("unknown-on-line-3", "id ;\nx ;\nfoo", "unknown generator 'foo' (line 3, column 1)", 3, 1),
    ("superscript-two", "w(²,1)", "unexpected character '²' (line 1, column 3)", 1, 3),
    ("underscore", "w(1,2)_", "unexpected character '_' (line 1, column 7)", 1, 7),
    ("tabs", "id\t;\tx\t*\t)", "expected a term, found ')' (line 1, column 10)", 1, 10),
    ("crlf", "id ;\r\nx ;\r\n  w(1, ;", "expected 'nat', found ';' (line 3, column 8)", 3, 8),
    ("crlf-unknown", "id ;\r\n\r\n  bar", "unknown generator 'bar' (line 3, column 3)", 3, 3),
    ("lone-cr", "x *\r\r w(1,)", "expected 'nat', found ')' (line 1, column 11)", 1, 11),
    (
        "nesting-on-line-2",
        "id ;\n" + "(" * 101 + "id" + ")" * 101,
        "parentheses nest deeper than 100 (line 2, column 101)",
        2,
        101,
    ),
]


def looped_text(rng: random.Random) -> str:
    """A closed term: a row of cups, rows of wiring and one-in one-out
    generators, a row of caps.  Its wires close into circles, or into loops
    through vertices."""
    k = rng.randrange(1, 4)
    rows = [" * ".join(["cup"] * k)]
    for _ in range(rng.randrange(1, 4)):
        row, free = [], 2 * k
        while free:
            piece = rng.choice(["id", "id", "w(1,1)", "z(1,1)"] + ["swap", "x"] * (free > 1))
            row.append(piece)
            free -= 2 if piece in ("swap", "x") else 1
        rows.append(" * ".join(row))
    rows.append(" * ".join(["cap"] * k))
    return " ; ".join(f"({row})" for row in rows)


def front_end_texts() -> list[str]:
    """The 30 golden ladders, 500 printed random terms, 100 closed terms,
    and all 630 again with random white space (tabs, newlines, CRLF)
    between their tokens."""
    texts = []
    for i in range(30):
        rng = random.Random(f"golden-ladder:{i}")
        texts.append(" ; ".join(f"({rng.choice(LADDER_RUNGS)})" for _ in range(4)))
    rng = random.Random("front-end")
    texts += [term_to_text(random_term(rng, rng.randrange(1, 6))) for _ in range(500)]
    texts += [looped_text(rng) for _ in range(100)]
    spaces = ["", " ", "\t", "\n", "\r\n", " \t\r\n  "]
    respaced = []
    for i, text in enumerate(texts):
        rng = random.Random(f"respace:{i}")
        respaced.append("".join(piece + rng.choice(spaces) for piece in re.findall(r"\w+|\S", text)))
    return texts + respaced


def front_end_outcome(text: str) -> str:
    """The parsed term's repr and the diagram's JSON, or the error raised."""
    try:
        term = parse_term(text)
    except ZWError as err:
        return f"{type(err).__name__}: {err}"
    try:
        return repr(term) + "\n" + diagram_to_json(from_term(term))
    except ZWError as err:
        return repr(term) + f"\n{type(err).__name__}: {err}"


def test_front_end_outputs_are_pinned():
    texts = front_end_texts()
    digest = hashlib.sha256()
    kinds = {"ill-typed": 0, "circles": 0, "bare wires": 0, "multi-line": 0}
    for text in texts:
        outcome = front_end_outcome(text)
        digest.update(outcome.encode() + b"\0")
        if "TermTypeError" in outcome:
            kinds["ill-typed"] += 1
        else:
            g = from_term(parse_term(text))
            kinds["circles"] += g.circles > 0
            kinds["bare wires"] += any(p[0] == q[0] == -1 for p, q in g.edges)
        kinds["multi-line"] += "\r\n" in text
    assert len(texts) == 1260
    assert min(kinds.values()) >= 40, kinds
    assert digest.hexdigest() == FRONT_END_DIGEST


@pytest.mark.parametrize(
    "source, message, line, column",
    [row[1:] for row in SYNTAX_ERRORS],
    ids=[row[0] for row in SYNTAX_ERRORS],
)
def test_syntax_errors_keep_their_positions(source, message, line, column):
    with pytest.raises(TermSyntaxError) as err:
        parse_term(source)
    assert (str(err.value), err.value.line, err.value.column) == (message, line, column)


def test_a_number_too_long_to_convert_is_a_syntax_error():
    # Python refuses to convert strings of more than 4300 digits to int.
    ones = "1" * 5000
    with pytest.raises(TermSyntaxError) as err:
        parse_term(f"id ;\n w(1,{ones})")
    assert str(err.value) == "number of 5000 digits is too long (line 2, column 6)"
    with pytest.raises(TermSyntaxError) as err:
        parse_term(f"w({ones}) ; id")  # the number comes before the missing ','
    assert (err.value.line, err.value.column) == (1, 3)
