"""Euclidean TSP instances: generation, parsing, distances, tour length, and
the native instance, heat-map and tour documents, all written by one writer
(_native_text). Every input file is read by read_text, and document text,
native or TSPLIB, is cut by one rule: only "\n", "\r\n" and "\r" end a line
(_lines) and only spaces and tabs separate tokens (_fields); every token is
converted by one rule (_token)."""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Optional

import numpy as np

INSTANCE_HEADER = "UTSP-INSTANCE v1"
HEATMAP_HEADER = "UTSP-HEATMAP v1"
TOUR_HEADER = "UTSP-TOUR v1"

# the only characters that separate the tokens of a document line; any other
# space or separator (a no-break space, a form feed, U+2028) is part of its
# token, which _token then rejects
_BLANKS = " \t"
_LINE_BREAK = re.compile(r"\r\n?|\n")
_FIELD = re.compile(r"[^ \t]+")


class TsplibParseError(ValueError):
    """Raised when a TSPLIB document cannot be parsed; message names the line."""


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=np.float64)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class Instance:
    """A set of city coordinates on the plane.

    Generated instances live on the unit square; parsed instances keep their
    coordinates as written. Immutable and safe to share across workers.
    """

    coords: np.ndarray
    name: Optional[str] = None

    def __post_init__(self):
        coords = np.asarray(self.coords, dtype=np.float64)
        if coords.ndim != 2 or coords.shape[1] != 2:
            raise ValueError(f"coords must have shape (n, 2), got {coords.shape}")
        if coords.shape[0] < 3:
            raise ValueError(f"an instance needs at least 3 cities, got {coords.shape[0]}")
        if not np.isfinite(coords).all():
            raise ValueError("coords must be finite")
        object.__setattr__(self, "coords", _readonly(coords))

    @property
    def n(self) -> int:
        return self.coords.shape[0]


@dataclass(frozen=True)
class Tour:
    """A cyclic visiting order: a read-only permutation of 0..n-1."""

    order: np.ndarray

    @classmethod
    def from_order(cls, order) -> "Tour":
        order = np.asarray(order)
        if order.ndim != 1 or order.shape[0] < 3:
            raise ValueError("tour order must be a 1-d sequence of at least 3 cities")
        if order.dtype.kind not in "iu":
            raise ValueError(f"tour order must hold integers, got dtype {order.dtype}")
        order = order.astype(np.int64)  # a copy
        if np.any(np.sort(order) != np.arange(order.shape[0])):
            raise ValueError("tour order must be a permutation of 0..n-1")
        order.setflags(write=False)
        return cls(order=order)

    @property
    def n(self) -> int:
        return self.order.shape[0]


def generate_random(n: int, seed: int) -> Instance:
    """Draw n cities i.i.d. uniform on the unit square.

    Uses numpy's PCG64 generator so identical (n, seed) pairs reproduce
    bit-identically across platforms.
    """
    if n < 3:
        raise ValueError(f"n must be >= 3, got {n}")
    rng = np.random.default_rng(seed)
    coords = rng.random((n, 2))
    return Instance(coords=coords, name=f"random-n{n}-s{seed}")


def coordinate_span(inst: Instance) -> float:
    """The largest per-axis extent of the cities' coordinates, max over the
    axes of (max - min); 0.0 when all cities share one point. The one span
    rule: unit_exponent, the heat-map fit's frame and emit_tour_svg read it.
    An extent past the largest float is inf, and distance_matrix then
    refuses the instance."""
    c = inst.coords
    with np.errstate(over="ignore"):
        return float((c.max(axis=0) - c.min(axis=0)).max())


def unit_exponent(inst: Instance) -> int:
    """The e for which coordinate_span(inst) times 2**-e lies in [1/2, 1); 0
    when all cities share one point. Every stage with a threshold works on
    the distances times 2**-e, the instance's power-of-two frame, and scales
    lengths back by 2**e; the scaling is exact. Every unit-square instance
    has e = 0."""
    return math.frexp(coordinate_span(inst))[1]


def distance_matrix(inst: Instance) -> np.ndarray:
    """Full symmetric Euclidean distance matrix.

    When unit_exponent e < 0, the coordinate differences are scaled by 2**-e
    and the distances back by 2**e, so tiny coordinates do not underflow when
    squared. Raises ValueError when a distance overflows to a non-finite
    value (coordinates of magnitude near 1e154 and above).
    """
    x, y = inst.coords.T
    k = max(0, -unit_exponent(inst))
    with np.errstate(over="ignore", invalid="ignore"):
        # dx*dx + dy*dy on two contiguous n x n arrays, in place: the same
        # two-term sum as a reduction over a length-2 axis, at a fraction of
        # its cost
        dx = x[:, None] - x[None, :]
        dy = y[:, None] - y[None, :]
        if k:
            np.ldexp(dx, k, out=dx)
            np.ldexp(dy, k, out=dy)
        np.multiply(dx, dx, out=dx)
        np.multiply(dy, dy, out=dy)
        d = np.sqrt(np.add(dx, dy, out=dx), out=dx)
    if not np.isfinite(d).all():
        raise ValueError("a distance between cities overflows; rescale the coordinates")
    return np.ldexp(d, -k, out=d) if k else d


def tour_length(d: np.ndarray, tour: Tour) -> float:
    """Total cycle length of the tour under distance matrix d."""
    if tour.n != d.shape[0]:
        raise ValueError(f"tour has {tour.n} cities, matrix has {d.shape[0]}")
    return order_length(d, tour.order)


def order_length(d: np.ndarray, order: np.ndarray) -> float:
    """tour_length without the size check, for a raw order array."""
    return float(d[order, np.roll(order, -1)].sum())


def _lines(text: str) -> list[str]:
    """The lines of document text, each stripped of _BLANKS. Only "\n",
    "\r\n" and "\r" end a line; str.splitlines would also end one at "\v",
    "\f", "\x1c".."\x1e", "\x85", U+2028 and U+2029."""
    return [line.strip(_BLANKS) for line in _LINE_BREAK.split(text)]


def _fields(line: str) -> list[str]:
    """The tokens of a document line: its runs of characters other than
    _BLANKS; str.split would also split at every other white space."""
    return _FIELD.findall(line)


def _token(token: str, kind, where: str, error=ValueError, positive: bool = False):
    """The one conversion of document text: an integer (kind int) is ASCII
    digits, positive if asked; a number (kind float) is an ASCII token with no
    "_" and no white space that float accepts (decimal, nan, inf); float
    itself would ignore white space around the token. Else raises error
    naming where and the token."""
    try:
        if (token.isascii() and "_" not in token and not any(map(str.isspace, token))
                and (kind is float or token.isdigit())):
            value = kind(token)
            if value > 0 or not positive:
                return value
    except ValueError:  # float's own rejections, and int's digit-count limit
        pass
    noun = "a number" if kind is float else "a positive integer" if positive else "an integer"
    raise error(f"{where}: expected {noun}, found {token!r}")


# ---------------------------------------------------------------------------
# TSPLIB (EUC_2D subset)
# ---------------------------------------------------------------------------

def parse_tsplib(text: str) -> Instance:
    """Parse the EUC_2D subset of TSPLIB (NODE_COORD_SECTION documents).

    Coordinates are taken as written; 1-based city indices in the file map to
    0-based cities. Unsupported weight types and dimension mismatches raise
    TsplibParseError naming the offending line. Only the coordinates are
    used: lengths are unrounded Euclidean distances, not TSPLIB's nint
    EUC_2D metric, so they cannot be compared with TSPLIB's published
    optima.
    """
    dimension: Optional[int] = None
    weight_type: Optional[str] = None
    name: Optional[str] = None
    coord_rows: list[tuple[int, int, float, float]] = []  # (line, index, x, y)
    in_coords = False
    for i, line in enumerate(_lines(text), start=1):
        if not line:
            continue
        if in_coords:
            if line == "EOF":
                in_coords = False
                continue
            parts = _fields(line)
            if len(parts) != 3:
                raise TsplibParseError(f"line {i}: expected 'index x y', got {line!r}")
            idx, x, y = (_token(part, kind, f"line {i}", TsplibParseError)
                         for part, kind in zip(parts, (int, float, float)))
            coord_rows.append((i, idx, x, y))
            continue
        key, _, value = line.partition(":")
        key = key.strip(_BLANKS).upper()
        value = value.strip(_BLANKS)
        if key == "NAME":
            name = value or None
        elif key == "DIMENSION":
            dimension = _token(value, int, f"line {i}: DIMENSION", TsplibParseError)
        elif key == "EDGE_WEIGHT_TYPE":
            weight_type = value.upper()
            if weight_type != "EUC_2D":
                raise TsplibParseError(
                    f"line {i}: unsupported EDGE_WEIGHT_TYPE {value!r} (only EUC_2D)"
                )
        elif key == "NODE_COORD_SECTION":
            in_coords = True
    if dimension is None:
        raise TsplibParseError("missing DIMENSION header")
    if weight_type is None:
        raise TsplibParseError("missing EDGE_WEIGHT_TYPE header")
    if not coord_rows:
        raise TsplibParseError("missing NODE_COORD_SECTION")
    if len(coord_rows) != dimension:
        raise TsplibParseError(
            f"DIMENSION is {dimension} but NODE_COORD_SECTION has {len(coord_rows)} rows"
        )
    coords = np.zeros((dimension, 2), dtype=np.float64)
    seen = np.zeros(dimension, dtype=bool)
    for i, idx, x, y in coord_rows:
        if not 1 <= idx <= dimension:
            raise TsplibParseError(f"line {i}: city index {idx} outside 1..{dimension}")
        coords[idx - 1] = (x, y)
        seen[idx - 1] = True
    if not seen.all():
        missing = int(np.flatnonzero(~seen)[0]) + 1
        raise TsplibParseError(f"no coordinate row for city {missing}")
    return Instance(coords=coords, name=name)


# ---------------------------------------------------------------------------
# Native documents: instance, heat map and tour
# ---------------------------------------------------------------------------

def _native_text(header: str, n: int, lines) -> str:
    """The header line, the count line n, then the body lines, each ending in
    "\n". Body floats are repr of Python floats (from .tolist(); numpy 2 spells
    numpy scalars np.float64(...)), which round-trip bit-exactly."""
    return "".join(f"{line}\n" for line in (header, n, *lines))


def format_instance(inst: Instance) -> str:
    """Serialize to the versioned native text format (round-trips bit-exactly)."""
    rows = (f"{x!r} {y!r}" for x, y in inst.coords.tolist())
    return _native_text(INSTANCE_HEADER, inst.n, rows)


def format_heatmap(h: np.ndarray) -> str:
    h = np.asarray(h, dtype=np.float64)
    rows = (" ".join(map(repr, row)) for row in h.tolist())
    return _native_text(HEATMAP_HEADER, h.shape[0], rows)


def format_tour(tour: Tour, length: float) -> str:
    order = " ".join(map(str, tour.order.tolist()))
    return _native_text(TOUR_HEADER, tour.n, (order, repr(float(length))))


def _native_body(text: str, header: str) -> tuple[int, list[str]]:
    """Check the header line of a native document (instance, heat map or
    tour) and read its count line, a positive integer in decimal digits;
    returns (count, the non-blank lines after them)."""
    lines = [ln for ln in _lines(text) if ln]
    if not lines or lines[0] != header:
        raise ValueError(f"not a {header} document")
    if len(lines) < 2:
        raise ValueError(f"{header} document has no count line")
    return _token(lines[1], int, f"{header} count line", positive=True), lines[2:]


def _native_values(line: str, kind, where: str, width: Optional[int] = None) -> list:
    """The tokens of one body line read by _token as kind (int or float),
    their count checked against width if given; each ValueError names where."""
    values = [_token(token, kind, where) for token in _fields(line)]
    if width is not None and len(values) != width:
        raise ValueError(f"{where}: expected {width} values, found {len(values)}")
    return values


def _native_matrix(text: str, header: str, kind: str, width: Optional[int] = None) -> np.ndarray:
    """The float rows of a native document with count n: n rows of width
    values each (n when width is None). A wrong row count, or a ragged or
    non-numeric row named by its 1-based index, raises ValueError."""
    n, rows = _native_body(text, header)
    if len(rows) != n:
        raise ValueError(f"expected {n} {kind} rows, found {len(rows)}")
    return np.array([_native_values(ln, float, f"{kind} row {i}", width or n)
                     for i, ln in enumerate(rows, 1)])


def parse_instance(text: str) -> Instance:
    return Instance(coords=_native_matrix(text, INSTANCE_HEADER, "coordinate", 2))


def parse_heatmap(text: str) -> np.ndarray:
    h = _native_matrix(text, HEATMAP_HEADER, "matrix")
    if not np.isfinite(h).all():
        raise ValueError("heat-map entries must be finite")
    if (h < 0).any():
        raise ValueError("heat-map entries must be >= 0")
    return h


def parse_tour(text: str) -> tuple[Tour, float]:
    n, rows = _native_body(text, TOUR_HEADER)
    if len(rows) < 2:
        raise ValueError(f"{TOUR_HEADER} document has no {('order', 'length')[len(rows)]} line")
    if len(rows) > 2:
        raise ValueError(f"{TOUR_HEADER} document has a line after its length line")
    order = _native_values(rows[0], int, "order line")
    if len(order) != n:
        raise ValueError(f"expected {n} cities in the order line, got {len(order)}")
    if max(order) >= n:  # before Tour.from_order makes an int64 array of it
        raise ValueError(f"order line: city {max(order)} outside 0..{n - 1}")
    (length,) = _native_values(rows[1], float, "length line", 1)
    if not 0.0 <= length < math.inf:
        raise ValueError(f"tour length must be finite and >= 0, got {length!r}")
    return Tour.from_order(order), length


def read_text(path: str) -> str:
    """An input file's text: UTF-8, a byte-order mark skipped; other bytes
    raise ValueError naming the path."""
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None


def read_instance_file(path: str) -> Instance:
    """Load an instance from disk (read_text), sniffing native vs TSPLIB
    format: a file whose first non-blank line starts with the token
    UTSP-INSTANCE is native (no TSPLIB keyword is that token), and
    parse_instance checks the rest of its header line."""
    text = read_text(path)
    first = next((ln for ln in _lines(text) if ln), "")
    if _fields(first)[:1] == _fields(INSTANCE_HEADER)[:1]:
        return parse_instance(text)
    return parse_tsplib(text)
