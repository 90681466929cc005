import hashlib
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tspheat.instances import (
    Instance,
    Tour,
    TsplibParseError,
    coordinate_span,
    distance_matrix,
    format_heatmap,
    format_instance,
    format_tour,
    generate_random,
    parse_instance,
    parse_tsplib,
    tour_length,
)

SQUARE = Instance(coords=np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]))


class TestGenerateRandom:
    def test_points_in_unit_square(self):
        inst = generate_random(3, 7)
        assert inst.n == 3
        assert np.all(inst.coords >= 0.0) and np.all(inst.coords <= 1.0)

    def test_deterministic(self):
        a = generate_random(3, 7)
        b = generate_random(3, 7)
        assert np.array_equal(a.coords, b.coords)

    def test_rejects_tiny_n(self):
        with pytest.raises(ValueError):
            generate_random(2, 0)

    def test_golden_coordinates(self):
        # frozen once from the reference generator (PCG64, seed 1)
        golden = np.array([
            [0.5118216247002567, 0.9504636963259353],
            [0.14415961271963373, 0.9486494471372439],
            [0.31183145201048545, 0.42332644897257565],
            [0.8277025938204418, 0.4091991363691613],
            [0.5495936876730595, 0.027559113243068367],
            [0.7535131086748066, 0.5381433132192782],
            [0.32973171649909216, 0.7884287034284043],
            [0.303194829291645, 0.4534978894806515],
            [0.13404169724716475, 0.40311298644712923],
            [0.20345524067614962, 0.2623133404418495],
        ])
        inst = generate_random(10, 1)
        assert np.array_equal(inst.coords, golden)

    def test_coords_read_only(self):
        inst = generate_random(5, 0)
        with pytest.raises(ValueError):
            inst.coords[0, 0] = 99.0


class TestDistanceMatrix:
    def test_unit_square_geometry(self):
        d = distance_matrix(SQUARE)
        assert d[0, 1] == pytest.approx(1.0)
        assert d[1, 2] == pytest.approx(1.0)
        assert d[0, 2] == pytest.approx(math.sqrt(2.0))
        assert d[1, 3] == pytest.approx(math.sqrt(2.0))

    def test_duplicate_coordinates_allowed(self):
        inst = Instance(coords=np.array([[0.5, 0.5], [0.5, 0.5], [0.1, 0.9]]))
        d = distance_matrix(inst)
        assert d[0, 1] == 0.0

    def test_matches_pairwise_recomputation(self):
        inst = generate_random(6, 3)
        d = distance_matrix(inst)
        for i in range(6):
            for j in range(6):
                expect = math.hypot(
                    inst.coords[i, 0] - inst.coords[j, 0],
                    inst.coords[i, 1] - inst.coords[j, 1],
                )
                assert d[i, j] == pytest.approx(expect, abs=1e-12)

    def test_rejects_overflowing_distances(self):
        inst = Instance(coords=generate_random(8, 0).coords * 1e200)
        with pytest.raises(ValueError, match="overflows"):
            distance_matrix(inst)

    def test_rejects_an_extent_past_the_largest_float(self):
        # the largest float and a negative coordinate: their difference
        # overflows, with no warning, and the instance is refused
        inst = Instance(coords=np.array([[1.7976931348623157e308, 0.0], [0.0, 0.0],
                                         [-1e292, 0.0]]))
        assert coordinate_span(inst) == math.inf
        with pytest.raises(ValueError, match="overflows"):
            distance_matrix(inst)

    def test_large_finite_coordinates_accepted(self):
        inst = Instance(coords=generate_random(8, 0).coords * 1e150)
        d = distance_matrix(inst)
        assert np.isfinite(d).all()
        assert d[0, 1] == pytest.approx(1e150 * distance_matrix(generate_random(8, 0))[0, 1])

    @pytest.mark.parametrize("k", [-1000, -600, -530])
    def test_tiny_coordinates_do_not_underflow(self, k):
        # the squares of these differences underflow; the distances are the
        # unit-scale ones times 2**k, bit for bit
        c = np.random.default_rng(1).random((30, 2))
        d = distance_matrix(Instance(coords=np.ldexp(c, k)))
        assert d.tobytes() == np.ldexp(distance_matrix(Instance(coords=c)), k).tobytes()
        assert np.all(d[~np.eye(30, dtype=bool)] > 0.0)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=25, deadline=None)
    def test_symmetric_zero_diagonal(self, seed):
        # exact without a symmetrising pass: (i, j) and (j, i) square the same
        # differences up to sign, and c - c is +0.0, at every magnitude from
        # subnormal to the overflow limit, shifted or not, with duplicate and
        # collinear cities
        c = generate_random(8, seed).coords
        layouts = [c, np.concatenate([c[:4], c[:4]]), c[:, :1] * np.array([1.0, 3.0])]
        for coords in layouts:
            for scale in (1e-310, 1e-200, 1e-3, 1.0, 1e3, 1e150):
                for shift in (0.0, -7.25, 1e6):
                    d = distance_matrix(Instance(coords=coords * scale + shift))
                    assert np.array_equal(d, d.T)
                    assert np.all(np.diag(d) == 0.0)
                    assert not np.signbit(np.diag(d)).any()


class TestTourLength:
    def test_perimeter(self):
        d = distance_matrix(SQUARE)
        assert tour_length(d, Tour.from_order([0, 1, 2, 3])) == pytest.approx(4.0)

    def test_crossing_order(self):
        d = distance_matrix(SQUARE)
        crossing = tour_length(d, Tour.from_order([0, 2, 1, 3]))
        assert crossing == pytest.approx(2.0 + 2.0 * math.sqrt(2.0))

    @given(
        st.integers(min_value=0, max_value=1_000),
        st.integers(min_value=0, max_value=11),
    )
    @settings(max_examples=30, deadline=None)
    def test_rotation_and_reversal_invariance(self, seed, shift):
        inst = generate_random(12, seed)
        d = distance_matrix(inst)
        order = np.random.default_rng(seed).permutation(12)
        base = tour_length(d, Tour.from_order(order))
        rotated = tour_length(d, Tour.from_order(np.roll(order, shift)))
        reversed_ = tour_length(d, Tour.from_order(order[::-1]))
        assert rotated == pytest.approx(base, abs=1e-12)
        assert reversed_ == pytest.approx(base, abs=1e-12)

    def test_rejects_size_mismatch(self):
        d = distance_matrix(SQUARE)
        with pytest.raises(ValueError):
            tour_length(d, Tour.from_order([0, 1, 2]))


class TestTour:
    def test_rejects_non_permutation(self):
        with pytest.raises(ValueError):
            Tour.from_order([0, 1, 1, 2])

    @pytest.mark.parametrize("order", [[0, 1.7, 2.2], [0.0, 2.0, 1.0], ["0", "2", "1"]])
    def test_rejects_non_integer_order(self, order):
        # casting to int64 would truncate 1.7 to 1 and read "2" as 2
        with pytest.raises(ValueError, match="must hold integers"):
            Tour.from_order(order)

    def test_any_integer_dtype_accepted(self):
        tour = Tour.from_order(np.array([2, 0, 1], dtype=np.uint8))
        assert tour.order.dtype == np.int64
        assert tour.order.tolist() == [2, 0, 1]


MINIMAL_TSPLIB = """NAME: tiny4
TYPE: TSP
DIMENSION: 4
EDGE_WEIGHT_TYPE: EUC_2D
NODE_COORD_SECTION
1 0.0 0.0
2 10.0 0.0
3 10.0 10.0
4 0.0 10.0
EOF
"""


class TestTsplib:
    def test_minimal_document(self):
        inst = parse_tsplib(MINIMAL_TSPLIB)
        assert inst.n == 4
        assert inst.name == "tiny4"
        assert np.array_equal(
            inst.coords,
            np.array([[0.0, 0.0], [10.0, 0.0], [10.0, 10.0], [0.0, 10.0]]),
        )

    def test_rejects_explicit_weights(self):
        doc = MINIMAL_TSPLIB.replace("EUC_2D", "EXPLICIT")
        with pytest.raises(TsplibParseError, match="EXPLICIT"):
            parse_tsplib(doc)

    def test_rejects_dimension_mismatch(self):
        doc = MINIMAL_TSPLIB.replace("DIMENSION: 4", "DIMENSION: 5")
        with pytest.raises(TsplibParseError, match="5"):
            parse_tsplib(doc)

    def test_error_names_offending_line(self):
        doc = MINIMAL_TSPLIB.replace("2 10.0 0.0", "2 10.0")
        with pytest.raises(TsplibParseError, match="line"):
            parse_tsplib(doc)

    @pytest.mark.parametrize("old, new, message", [
        ("DIMENSION: 4", "DIMENSION: ٣", "line 3: DIMENSION: expected an integer, found '٣'"),
        ("2 10.0 0.0", "1_0 10.0 0.0", "line 7: expected an integer, found '1_0'"),
        ("2 10.0 0.0", "+2 10.0 0.0", "line 7: expected an integer, found '+2'"),
        ("3 10.0 10.0", "3 1_5 10.0", "line 8: expected a number, found '1_5'"),
        ("3 10.0 10.0", "3 10.0 0x10", "line 8: expected a number, found '0x10'"),
        ("4 0.0 10.0", "5 0.0 10.0", "line 9: city index 5 outside 1..4"),
    ], ids=["dimension-arabic-indic", "index-underscore", "index-plus", "coordinate-underscore",
            "coordinate-hex", "index-outside"])
    def test_token_rules_named(self, old, new, message):
        with pytest.raises(TsplibParseError, match=f"^{re.escape(message)}$"):
            parse_tsplib(MINIMAL_TSPLIB.replace(old, new))


class TestNativeFormat:
    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=25, deadline=None)
    def test_round_trip_bit_exact(self, seed):
        inst = generate_random(7, seed)
        again = parse_instance(format_instance(inst))
        assert np.array_equal(inst.coords, again.coords)

    def test_header_checked(self):
        with pytest.raises(ValueError):
            parse_instance("BOGUS v9\n3\n0 0\n1 1\n2 2\n")

    def test_truncated_after_header(self):
        with pytest.raises(ValueError, match="no count line"):
            parse_instance("UTSP-INSTANCE v1\n")

    @pytest.mark.parametrize("rows, message", [
        ("0 0 7\n1 0\n0 1\n", "coordinate row 1: expected 2 values, found 3"),
        ("0 0\n1\n0 1\n", "coordinate row 2: expected 2 values, found 1"),
        ("0 0\n1 0\n0 1 2 3\n", "coordinate row 3: expected 2 values, found 4"),
        ("0 0\n1 x\n0 1\n", "coordinate row 2: expected a number, found 'x'"),
        ("0 0\n1 0\n0,5 1\n", "coordinate row 3: expected a number, found '0,5'"),
        # float alone would read these as 10.0 and 1.0
        ("1_0 0\n1 0\n0 1\n", "coordinate row 1: expected a number, found '1_0'"),
        ("0 0\n\u0661 0\n0 1\n", "coordinate row 2: expected a number, found '\u0661'"),
    ])
    def test_ragged_row_named(self, rows, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            parse_instance("UTSP-INSTANCE v1\n3\n" + rows)

    @pytest.mark.parametrize("count", ["abc", "-1", "0", "2.5"])
    def test_count_line_checked(self, count):
        message = f"UTSP-INSTANCE v1 count line: expected a positive integer, found '{count}'"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            parse_instance(f"UTSP-INSTANCE v1\n{count}\n0 0\n1 0\n0 1\n")


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


class TestWriterBytes:
    # the writers' exact bytes: a round trip alone would not notice another
    # spelling of the same floats, such as %.17g's 0.10000000000000001 for 0.1
    def test_generated_instance(self):
        text = format_instance(generate_random(12, 5))
        assert _sha256(text) == "febd4dc5840c53d8525d2bacf188d36319248737a9505aedff7b8bc763b09955"

    def test_extreme_coordinates(self):
        inst = Instance(coords=[[0.1 + 0.2, 1e-300], [5e-324, -0.0], [1e300, 0.5]])
        text = format_instance(inst)
        assert text == (
            "UTSP-INSTANCE v1\n3\n0.30000000000000004 1e-300\n5e-324 -0.0\n1e+300 0.5\n"
        )
        assert _sha256(text) == "94c6d5d9a1c3bdfa5662daa274176f53552e6ed0c25d32f3c8ba87f3c9a019ec"

    def test_float32_heatmap_with_zeros(self):
        h = np.array([[0, 0.1, 0.9], [0.9, 0, 0.1], [0.1, 0.9, 0]], dtype=np.float32)
        text = format_heatmap(h)
        assert text.splitlines()[2] == "0.0 0.10000000149011612 0.8999999761581421"
        assert _sha256(text) == "bbbe5ecef20c96a8c5c7e1d00c7914c586016e64182041c8081c07916c6a2320"

    def test_tour_with_17_digit_length(self):
        # a numpy scalar length is spelled as the Python float it holds
        text = format_tour(Tour.from_order([2, 0, 3, 1]), np.float64(1 + 2.0**-52))
        assert text == "UTSP-TOUR v1\n4\n2 0 3 1\n1.0000000000000002\n"
        assert _sha256(text) == "91b8992adc6658ebf131e82ccdb3056debfe98e834bfc199a78784f4e75c812c"
