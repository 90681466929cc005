"""Generated input documents against the two token rules: an integer is ASCII
decimal digits, a number is an ASCII token with no underscore that float
accepts. Every native or TSPLIB document either parses, by those rules, or
raises ValueError, and a token's error names its row or line and the token;
a writer-shaped document re-formats to the same bytes; and the CLI exits 0
or 2 on such files."""

import contextlib
import io
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tspheat.cli import main
from tspheat.instances import (
    HEATMAP_HEADER,
    INSTANCE_HEADER,
    TOUR_HEADER,
    TsplibParseError,
    format_heatmap,
    format_instance,
    format_tour,
    generate_random,
    parse_heatmap,
    parse_instance,
    parse_tsplib,
    read_instance_file,
)

from oracles import parse_tour

ODD_TOKENS = ["1_0", "١", "٣", "nan", "inf", "1e400", "+1", "-0", ".5", "5.", "0x10", "1,5"]
odd_token = st.one_of(st.sampled_from(ODD_TOKENS), st.integers(10**19, 10**20 - 1).map(str))

# the two rules written out apart from the parser
INTEGER = re.compile(r"[0-9]+")
NUMBER = re.compile(r"[+-]?((\d+\.?\d*|\.\d+)(e[+-]?\d+)?|inf|infinity|nan)", re.ASCII | re.I)
TOKEN_ERROR = re.compile(r"(.*): expected (a number|an integer|a positive integer), found (.*)")

PARSE = {INSTANCE_HEADER: parse_instance, HEATMAP_HEADER: parse_heatmap, TOUR_HEADER: parse_tour}
FORMAT = {
    INSTANCE_HEADER: format_instance,
    HEATMAP_HEADER: format_heatmap,
    TOUR_HEADER: lambda parsed: format_tour(*parsed),
}


def _text(lines):
    return "".join(" ".join(tokens) + "\n" for tokens in lines)


@st.composite
def native_document(draw, header):
    """(text, token lines, rule per line, writer-shaped?): a writer-shaped
    document of 3-6 cities with up to two tokens swapped for odd ones."""
    n = draw(st.integers(3, 6))
    if header == TOUR_HEADER:
        order = draw(st.permutations(range(n)))
        length = draw(st.floats(min_value=0.0, allow_infinity=False))
        body, rules = [[str(c) for c in order], [repr(length)]], [INTEGER, NUMBER]
    else:
        width = 2 if header == INSTANCE_HEADER else n
        value = st.floats(min_value=0.0 if header == HEATMAP_HEADER else None,
                          allow_nan=False, allow_infinity=False)
        body = [[repr(draw(value)) for _ in range(width)] for _ in range(n)]
        rules = [NUMBER] * n
    lines = [[header], [str(n)], *body]
    rules = [None, INTEGER, *rules]
    shaped = _text(lines)
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(1, len(lines) - 1))
        lines[i][draw(st.integers(0, len(lines[i]) - 1))] = draw(odd_token)
    text = _text(lines)
    return text, lines, rules, text == shaped


@st.composite
def tsplib_document(draw):
    """(text, token lines, rule per token): a TSPLIB EUC_2D document of 3-8
    cities in shuffled row order, with up to two tokens swapped for odd ones."""
    n = draw(st.integers(3, 8))
    coord = st.floats(-1e6, 1e6, allow_nan=False).map(repr)
    rows = [[str(i), draw(coord), draw(coord)] for i in draw(st.permutations(range(1, n + 1)))]
    lines = [["NAME:", "g"], ["DIMENSION:", str(n)], ["EDGE_WEIGHT_TYPE:", "EUC_2D"],
             ["NODE_COORD_SECTION"], *rows, ["EOF"]]
    rules = [None, [None, INTEGER], None, None, *([[INTEGER, NUMBER, NUMBER]] * n), None]
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.sampled_from([1, *range(4, 4 + n)]))
        j = draw(st.integers(1 if i == 1 else 0, len(lines[i]) - 1))
        lines[i][j] = draw(odd_token)
    return _text(lines), lines, rules


def _check_token_error(message, lines, where):
    """A token's error names where it is, by the pattern where, and the token."""
    m = TOKEN_ERROR.fullmatch(message)
    if m:
        assert re.fullmatch(where, m[1]), message
        assert m[3] in {repr(t) for tokens in lines for t in tokens}, message


@pytest.mark.parametrize("header", [INSTANCE_HEADER, HEATMAP_HEADER, TOUR_HEADER])
@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_native_document(header, data):
    text, lines, rules, shaped = data.draw(native_document(header))
    try:
        parsed = PARSE[header](text)
    except ValueError as exc:
        _check_token_error(
            str(exc), lines,
            rf"{re.escape(header)} count line|(coordinate|matrix) row \d+|order line|length line",
        )
        assert not shaped
        return
    for tokens, rule in zip(lines[1:], rules[1:]):
        assert all(rule.fullmatch(t) for t in tokens), text
    if shaped:
        assert FORMAT[header](parsed) == text


@given(tsplib_document())
@settings(max_examples=150, deadline=None)
def test_tsplib_document(doc):
    text, lines, rules = doc
    try:
        inst = parse_tsplib(text)
    except TsplibParseError as exc:
        _check_token_error(str(exc), lines, r"line \d+(: DIMENSION)?")
        return
    except ValueError as exc:  # Instance's own check on a nan or inf coordinate
        assert str(exc) == "coords must be finite"
        return
    for tokens, rule in zip(lines, rules):
        if rule is not None:
            assert all(r is None or r.fullmatch(t) for t, r in zip(tokens, rule)), text
    by_index = {int(i): (float(x), float(y)) for i, x, y in lines[4:-1]}
    assert inst.coords.tolist() == [list(by_index[i]) for i in range(1, inst.n + 1)]


def _run(argv):
    """main(argv)'s exit code; on exit 2 stderr holds one error line."""
    with contextlib.redirect_stderr(io.StringIO()) as stderr:
        code = main(argv)
    err = stderr.getvalue()
    assert code in (0, 2), err
    if code == 2:
        assert err.startswith("error: ") and err.count("\n") == 1, err
    return code


@given(st.one_of(native_document(INSTANCE_HEADER).map(lambda doc: doc[0]),
                 tsplib_document().map(lambda doc: doc[0])))
@settings(max_examples=12, deadline=None)
def test_cli_oracle_exits_0_or_2(text):
    with tempfile.TemporaryDirectory() as tmp:
        inst = Path(tmp, "inst.txt")
        inst.write_text(text, encoding="utf-8")
        code = _run(["oracle", "--instance", str(inst), "--out", str(Path(tmp, "t.txt"))])
        try:
            read_instance_file(str(inst))
        except ValueError:
            assert code == 2


@given(native_document(HEATMAP_HEADER))
@settings(max_examples=12, deadline=None)
def test_cli_search_exits_0_or_2(doc):
    text, lines, _, shaped = doc
    n = len(lines) - 2
    with tempfile.TemporaryDirectory() as tmp:
        inst, heat = Path(tmp, "inst.txt"), Path(tmp, "heat.txt")
        inst.write_text(format_instance(generate_random(n, 0)), encoding="utf-8")
        heat.write_text(text, encoding="utf-8")
        code = _run(["search", "--instance", str(inst), "--heatmap", str(heat),
                     "--rounds", "1", "--out", str(Path(tmp, "t.txt"))])
        assert code == 0 or not shaped


# characters that str.split or str.splitlines would take as a separator but a
# document does not: only spaces and tabs separate tokens, and only "\n",
# "\r\n" and "\r" end a line, so each of these stays inside its token
FOREIGN_SEPARATORS = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f", "\x85", "\xa0",
                      "\u2028", "\u2029", "\u3000"]
TSPLIB_HEAD = "NAME: t\nDIMENSION: {dim}\nEDGE_WEIGHT_TYPE: EUC_2D\nNODE_COORD_SECTION\n"
SEPARATOR_CASES = {
    # name: (parser, document with {s} for the separator, message with {t} for the token)
    "instance-inside": (
        parse_instance, "UTSP-INSTANCE v1\n3\n0{s}0\n1 0\n0 1\n",
        "coordinate row 1: expected a number, found {t}"),
    "instance-after": (
        parse_instance, "UTSP-INSTANCE v1\n3\n0 0\n1 0{s}\n0 1\n",
        "coordinate row 2: expected a number, found {t}"),
    "instance-row-break": (
        parse_instance, "UTSP-INSTANCE v1\n2\n0 0{s}1 0\n0 1\n",
        "coordinate row 1: expected a number, found {t}"),
    "instance-count": (
        parse_instance, "UTSP-INSTANCE v1\n3{s}\n0 0\n1 0\n0 1\n",
        "UTSP-INSTANCE v1 count line: expected a positive integer, found {t}"),
    "heatmap": (
        parse_heatmap, "UTSP-HEATMAP v1\n3\n0 1 1\n1 0{s}1\n1 1 0\n",
        "matrix row 2: expected a number, found {t}"),
    "tour-order": (
        parse_tour, "UTSP-TOUR v1\n3\n0 1{s}2\n3.0\n",
        "order line: expected an integer, found {t}"),
    "tour-length": (
        parse_tour, "UTSP-TOUR v1\n3\n0 1 2\n{s}3.0\n",
        "length line: expected a number, found {t}"),
    "tsplib-coordinate": (
        parse_tsplib, TSPLIB_HEAD.format(dim=3) + "1 0 0\n2 1{s}0 0\n3 0 1\nEOF\n",
        "line 6: expected a number, found {t}"),
    "tsplib-dimension": (
        parse_tsplib, TSPLIB_HEAD.format(dim="3{s}") + "1 0 0\n2 1 0\n3 0 1\nEOF\n",
        "line 2: DIMENSION: expected an integer, found {t}"),
    "tsplib-row-break": (
        parse_tsplib, TSPLIB_HEAD.format(dim=2) + "1 0 0{s}2 1 0\nEOF\n",
        "line 5: expected 'index x y', got {t}"),
}
# the token each case names: the one holding the separator, or the whole line
SEPARATOR_TOKENS = {
    "instance-inside": "0{s}0", "instance-after": "0{s}", "instance-row-break": "0{s}1",
    "instance-count": "3{s}", "heatmap": "0{s}1", "tour-order": "1{s}2", "tour-length": "{s}3.0",
    "tsplib-coordinate": "1{s}0", "tsplib-dimension": "3{s}", "tsplib-row-break": "1 0 0{s}2 1 0",
}


@pytest.mark.parametrize("sep", FOREIGN_SEPARATORS, ids=lambda sep: f"U+{ord(sep):04X}")
@pytest.mark.parametrize("case", sorted(SEPARATOR_CASES))
def test_only_spaces_and_tabs_separate(case, sep):
    parse, text, message = SEPARATOR_CASES[case]
    token = SEPARATOR_TOKENS[case].format(s=sep)
    with pytest.raises(ValueError) as exc:
        parse(text.format(s=sep))
    assert str(exc.value) == message.format(t=repr(token))


@pytest.mark.parametrize("end", ["\r\n", "\r"], ids=["crlf", "cr"])
def test_cr_and_crlf_end_lines(end):
    inst = generate_random(5, 1)
    text = format_instance(inst)
    assert parse_instance(text.replace("\n", end)).coords.tolist() == inst.coords.tolist()
    heat = "UTSP-HEATMAP v1\n3\n0\t1 1\n1 0 1\n1\t1\t0\n"
    assert parse_heatmap(heat.replace("\n", end)).tolist() == parse_heatmap(heat).tolist()
    tsplib = TSPLIB_HEAD.format(dim=3) + "1 0 0\n2\t1 0\n3 0 1\nEOF\n"
    assert parse_tsplib(tsplib.replace("\n", end)).coords.tolist() == [[0, 0], [1, 0], [0, 1]]
