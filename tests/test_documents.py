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
    parse_tour,
    parse_tsplib,
    read_instance_file,
)

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
