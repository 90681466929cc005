import dataclasses
import json
import shlex
from pathlib import Path

import numpy as np
import pytest

from tspheat import generator
from tspheat.bench import gap_percent, held_karp_exact, solve_pipeline
from tspheat.cli import build_parser, main
from tspheat.generator import TrainConfig
from tspheat.instances import (
    Instance,
    format_heatmap,
    format_instance,
    format_tour,
    generate_random,
    parse_heatmap,
    parse_instance,
    read_instance_file,
)
from tspheat.search import PRESETS

from oracles import parse_tour

README = Path(__file__).resolve().parents[1] / "README.md"


@pytest.fixture
def instance_file(tmp_path):
    path = tmp_path / "inst.txt"
    path.write_text(format_instance(generate_random(10, 3)))
    return str(path)


class TestGenerate:
    def test_writes_instance(self, tmp_path):
        out = tmp_path / "inst.txt"
        code = main(["generate", "--n", "8", "--seed", "5", "--out", str(out)])
        assert code == 0
        inst = parse_instance(out.read_text())
        assert inst.n == 8
        assert np.array_equal(inst.coords, generate_random(8, 5).coords)

    def test_rejects_bad_n(self, tmp_path, capsys):
        code = main(["generate", "--n", "2", "--out", str(tmp_path / "x.txt")])
        assert code == 2
        assert "error" in capsys.readouterr().err


class TestTrainHeatmap:
    def test_writes_heatmap_and_trace(self, instance_file, tmp_path):
        out = tmp_path / "heat.txt"
        trace = tmp_path / "trace.csv"
        code = main([
            "train-heatmap", "--instance", instance_file, "--steps", "40",
            "--seed", "3", "--out", str(out), "--trace-out", str(trace),
        ])
        assert code == 0
        heat = parse_heatmap(out.read_text())
        assert heat.shape == (10, 10)
        assert heat.sum() == pytest.approx(10.0, abs=1e-6)
        lines = trace.read_text().strip().splitlines()
        assert lines[0] == "step,total,row_penalty,self_loop,expected_length"
        assert len(lines) == 41
        # row k is the loss evaluated before Adam update k, numbered from 1 as
        # the fit's NumericError messages number steps
        assert lines[1].startswith("1,") and lines[-1].startswith("40,")

    def test_numeric_failure_prints_only_its_error(self, instance_file, tmp_path, capsys,
                                                   monkeypatch):
        # a fit goes non-finite at step 3: main exits 3 with the fit's own
        # message and nothing else (a numpy warning would fail the suite).
        # Without --trace-out the loss is not evaluated, so the gradient is
        # poisoned; with it, the recorded loss is
        def at_step_3(kernel, poison):
            calls = []

            def poisoned(*args):
                out = kernel(*args)
                calls.append(None)
                return poison(out) if len(calls) == 3 else out

            return poisoned

        def nan_gradient(g):
            g[1, 2] = np.nan
            return g

        def nan_loss(breakdown):
            return dataclasses.replace(breakdown, total=float("nan"))

        out = tmp_path / "heat.txt"
        trace = tmp_path / "trace.csv"
        args = ["train-heatmap", "--instance", instance_file, "--steps", "10",
                "--out", str(out)]
        for name, poison, extra, message in (
            ("_gradient", nan_gradient, [], "non-finite gradient at step 3"),
            ("_breakdown", nan_loss, ["--trace-out", str(trace)], "non-finite loss at step 3"),
        ):
            with monkeypatch.context() as mp:
                mp.setattr(generator, name, at_step_3(getattr(generator, name), poison))
                assert main(args + extra) == 3, name
            assert capsys.readouterr().err == f"runtime failure: {message}\n"
            assert not out.exists()
            assert not trace.exists()

    def test_trace_out_leaves_the_heatmap_bytes(self, instance_file, tmp_path):
        # --trace-out records the per-step losses; the heat map is the same
        # file with or without it
        args = ["train-heatmap", "--instance", instance_file, "--steps", "20", "--seed", "3"]
        plain, traced = tmp_path / "plain.txt", tmp_path / "traced.txt"
        assert main(args + ["--out", str(plain)]) == 0
        assert main(args + ["--out", str(traced), "--trace-out", str(tmp_path / "t.csv")]) == 0
        assert plain.read_bytes() == traced.read_bytes()


class TestSearchCommand:
    def test_search_from_heatmap_file(self, instance_file, tmp_path):
        heat_path = tmp_path / "heat.txt"
        main(["train-heatmap", "--instance", instance_file, "--steps", "60",
              "--seed", "3", "--out", str(heat_path)])
        tour_path = tmp_path / "tour.txt"
        code = main([
            "search", "--instance", instance_file, "--heatmap", str(heat_path),
            "--rounds", "6", "--seed", "3",
            "--out", str(tour_path),
        ])
        assert code == 0
        tour, length = parse_tour(tour_path.read_text())
        assert sorted(tour.order.tolist()) == list(range(10))
        assert length > 0

    @pytest.mark.parametrize("seed", ["0", "5"])
    def test_search_from_file_equals_solve(self, tmp_path, seed):
        # the heat-map file round-trips the fit bit-exactly, so searching
        # from it writes the tour that solve writes
        inst = tmp_path / "inst.txt"
        inst.write_text(format_instance(generate_random(30, 2)))
        heat, searched, solved = (tmp_path / name for name in ("heat.txt", "a.txt", "b.txt"))
        common = ["--instance", str(inst), "--seed", seed]
        assert main(["train-heatmap", *common, "--steps", "20", "--out", str(heat)]) == 0
        assert main(["search", *common, "--heatmap", str(heat), "--rounds", "2",
                     "--out", str(searched)]) == 0
        assert main(["solve", *common, "--steps", "20", "--rounds", "2",
                     "--out", str(solved)]) == 0
        assert searched.read_bytes() == solved.read_bytes()

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -0.25])
    def test_rejects_bad_heatmap_entry(self, instance_file, tmp_path, capsys, bad):
        heat = np.full((10, 10), 0.1)
        heat[2, 7] = bad
        heat_path = tmp_path / "heat.txt"
        heat_path.write_text(format_heatmap(heat))
        code = main([
            "search", "--instance", instance_file, "--heatmap", str(heat_path),
            "--rounds", "2", "--seed", "3",
            "--out", str(tmp_path / "t.txt"),
        ])
        assert code == 2
        assert "heat-map entries" in capsys.readouterr().err

    def test_heat_past_half_the_largest_float_searches(self, instance_file, tmp_path):
        # the file's entries are finite, but the pruned pair (2, 7) sums to
        # inf; the search runs on the heat halved, which keeps the ranking
        heat = np.full((10, 10), 0.1)
        heat[2, 7], heat[7, 2] = 1.5e308, 1e308
        tours = []
        for name, h in (("huge", heat), ("halved", np.ldexp(heat, -1))):
            heat_path, tour_path = tmp_path / f"{name}.txt", tmp_path / f"{name}-tour.txt"
            heat_path.write_text(format_heatmap(h))
            assert main(["search", "--instance", instance_file, "--heatmap", str(heat_path),
                         "--rounds", "2", "--seed", "3", "--out", str(tour_path)]) == 0
            tours.append(tour_path.read_bytes())
        assert tours[0] == tours[1]

    @pytest.mark.parametrize("command", ["search", "solve"])
    def test_expired_budget_still_writes_tour(self, instance_file, tmp_path, command):
        heat_path = tmp_path / "heat.txt"
        heat_path.write_text(format_heatmap(np.full((10, 10), 0.1)))
        heat_args = ["--heatmap", str(heat_path)] if command == "search" else []
        tour_path = tmp_path / "tour.txt"
        code = main([
            command, "--instance", instance_file, *heat_args,
            "--time-budget", "1e-12", "--seed", "3", "--out", str(tour_path),
        ])
        assert code == 0
        tour, length = parse_tour(tour_path.read_text())
        assert sorted(tour.order.tolist()) == list(range(10))
        assert np.isfinite(length) and length > 0

    @pytest.mark.parametrize("command, cut", [
        ("search", "heatmap"), ("search", "instance"), ("solve", "instance"),
    ])
    def test_truncated_native_file(self, instance_file, tmp_path, capsys, command, cut):
        heat_path = tmp_path / "heat.txt"
        heat_path.write_text(format_heatmap(np.full((10, 10), 0.1)))
        files = {"instance": instance_file, "heatmap": str(heat_path)}
        cut_path = tmp_path / "cut.txt"
        header = {"instance": "UTSP-INSTANCE v1", "heatmap": "UTSP-HEATMAP v1"}[cut]
        cut_path.write_text(header + "\n")
        files[cut] = str(cut_path)
        heat_args = ["--heatmap", files["heatmap"]] if command == "search" else []
        code = main([
            command, "--instance", files["instance"], *heat_args,
            "--rounds", "1", "--out", str(tmp_path / "t.txt"),
        ])
        assert code == 2
        assert "no count line" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["search", "solve"])
    def test_overflowing_distances_exit_2(self, tmp_path, capsys, command):
        inst = generate_random(8, 0)
        inst_path = tmp_path / "huge.txt"
        inst_path.write_text(format_instance(Instance(coords=inst.coords * 1e200)))
        heat_path = tmp_path / "heat.txt"
        heat_path.write_text(format_heatmap(np.full((8, 8), 0.1)))
        heat_args = ["--heatmap", str(heat_path)] if command == "search" else []
        code = main([
            command, "--instance", str(inst_path), *heat_args,
            "--rounds", "2", "--out", str(tmp_path / "t.txt"),
        ])
        assert code == 2
        assert "overflows" in capsys.readouterr().err

    @pytest.mark.parametrize("budget", ["nan", "inf"])
    def test_non_finite_time_budget_exits_2(self, instance_file, tmp_path, capsys, budget):
        code = main([
            "solve", "--instance", instance_file,
            "--time-budget", budget, "--out", str(tmp_path / "t.txt"),
        ])
        assert code == 2
        assert "time_budget must be finite" in capsys.readouterr().err

    def test_requires_budget(self, instance_file, tmp_path, capsys):
        heat_path = tmp_path / "heat.txt"
        main(["train-heatmap", "--instance", instance_file, "--steps", "10",
              "--seed", "3", "--out", str(heat_path)])
        code = main([
            "search", "--instance", instance_file, "--heatmap", str(heat_path),
            "--seed", "3", "--out", str(tmp_path / "t.txt"),
        ])
        assert code == 2

    def test_requires_budget_before_reading_files(self, instance_file, tmp_path, capsys):
        code = main([
            "search", "--instance", instance_file, "--heatmap", str(tmp_path / "nope.txt"),
            "--out", str(tmp_path / "t.txt"),
        ])
        assert code == 2
        assert "set --time-budget and/or --rounds" in capsys.readouterr().err


class TestSolve:
    def test_end_to_end_optimal(self, instance_file, tmp_path):
        tour_path = tmp_path / "tour.txt"
        svg_path = tmp_path / "tour.svg"
        code = main([
            "solve", "--instance", instance_file,
            "--rounds", "10", "--seed", "3", "--out", str(tour_path),
            "--svg", str(svg_path),
        ])
        assert code == 0
        from tspheat.bench import held_karp_exact

        _, opt = held_karp_exact(generate_random(10, 3))
        _, length = parse_tour(tour_path.read_text())
        assert length == pytest.approx(opt, abs=1e-9)
        assert svg_path.read_text().count("<circle") == 10

    def test_huge_coordinates_solve(self, tmp_path):
        # distances near 1e100 overflow float32; the fit trains on them
        # scaled by a power of two
        inst = Instance(coords=generate_random(30, 4).coords * 1e100)
        inst_path = tmp_path / "huge.txt"
        inst_path.write_text(format_instance(inst))
        tour_path = tmp_path / "tour.txt"
        code = main([
            "solve", "--instance", str(inst_path),
            "--rounds", "2", "--seed", "4", "--out", str(tour_path),
        ])
        assert code == 0
        tour, length = parse_tour(tour_path.read_text())
        assert sorted(tour.order.tolist()) == list(range(30))
        assert np.isfinite(length) and length > 0

    def test_reports_stage_seconds(self, instance_file, tmp_path, capsys):
        code = main([
            "solve", "--instance", instance_file,
            "--rounds", "3", "--seed", "3", "--out", str(tmp_path / "tour.txt"),
        ])
        assert code == 0
        fields = dict(f.split("=") for f in capsys.readouterr().err.split())
        assert list(fields) == ["length", "heatmap_s", "fit_steps", "step_us", "search_s",
                                "two_opt_s", "rounds", "starts", "or_moves", "two_opt_moves",
                                "scans", "kicks", "kicks_kept", "attempts", "dead_ends",
                                "improving", "lower_bound", "proof_round"]
        # an unset --steps runs the default fit, TrainConfig.steps at every size
        assert int(fields["fit_steps"]) == TrainConfig.steps
        assert float(fields["step_us"]) > 0.0
        assert 0.0 <= float(fields["two_opt_s"]) <= float(fields["search_s"])
        # the 1-tree bound proves round 2's tour optimal, which ends the run
        assert int(fields["rounds"]) == int(fields["proof_round"]) == 2
        assert float(fields["lower_bound"]) <= float(fields["length"])
        assert int(fields["or_moves"]) >= 0
        # a scan applies one move or finds none, and every city is scanned
        assert int(fields["two_opt_moves"]) + int(fields["or_moves"]) < int(fields["scans"])
        # every attempt ends improving or at a dead end
        assert int(fields["attempts"]) == int(fields["dead_ends"]) + int(fields["improving"]) > 0
        # tsp20 makes no kick, so every round starts fresh
        assert (fields["kicks"], fields["kicks_kept"]) == ("0", "0")
        assert fields["starts"] == fields["rounds"]

    def test_search_reports_the_same_search_fields(self, tmp_path, capsys):
        # search's stats line is solve's without the fit, and above 20
        # cities each of the two streams starts fresh once and then kicks;
        # a kept kick is a kick
        inst, heat = tmp_path / "inst.txt", tmp_path / "heat.txt"
        inst.write_text(format_instance(generate_random(40, 2)))
        common = ["--instance", str(inst), "--seed", "2"]
        assert main(["train-heatmap", *common, "--steps", "20", "--out", str(heat)]) == 0
        capsys.readouterr()
        assert main(["search", *common, "--heatmap", str(heat), "--rounds", "4",
                     "--out", str(tmp_path / "tour.txt")]) == 0
        fields = dict(f.split("=") for f in capsys.readouterr().err.split())
        assert list(fields) == ["length", "search_s", "two_opt_s", "rounds", "starts", "or_moves",
                                "two_opt_moves", "scans", "kicks", "kicks_kept", "attempts",
                                "dead_ends", "improving", "lower_bound", "proof_round"]
        _, length = parse_tour((tmp_path / "tour.txt").read_text())
        assert float(fields["length"]) == length
        assert 0 <= int(fields["kicks_kept"]) <= int(fields["kicks"])
        assert int(fields["kicks"]) > 0
        assert (fields["rounds"], fields["starts"]) == ("4", "2")
        assert int(fields["two_opt_moves"]) + int(fields["or_moves"]) < int(fields["scans"])
        assert int(fields["attempts"]) == int(fields["dead_ends"]) + int(fields["improving"]) > 0


class TestOracleAndBaseline:
    def test_oracle(self, instance_file, tmp_path):
        out = tmp_path / "opt.txt"
        assert main(["oracle", "--instance", instance_file, "--out", str(out)]) == 0
        tour, length = parse_tour(out.read_text())
        assert sorted(tour.order.tolist()) == list(range(10))

    def test_oracle_reports_seconds(self, instance_file, capsys):
        from tspheat.bench import held_karp_exact

        assert main(["oracle", "--instance", instance_file]) == 0
        out, err = capsys.readouterr()
        tour, length = held_karp_exact(generate_random(10, 3))
        assert out == format_tour(tour, length)
        assert err.endswith("\n") and err.count("\n") == 1
        fields = dict(f.split("=") for f in err.split())
        assert list(fields) == ["n", "length", "oracle_s"]
        assert (fields["n"], fields["length"]) == ("10", repr(length))
        assert float(fields["oracle_s"]) >= 0.0

    def test_oracle_guard(self, tmp_path, capsys):
        big = tmp_path / "big.txt"
        big.write_text(format_instance(generate_random(21, 0)))
        assert main(["oracle", "--instance", str(big), "--out", str(tmp_path / "o.txt")]) == 2

    def test_baseline(self, instance_file, tmp_path):
        out = tmp_path / "base.txt"
        assert main(["baseline", "--instance", instance_file, "--out", str(out)]) == 0
        _, length = parse_tour(out.read_text())
        assert length > 0

    def test_missing_file(self, tmp_path):
        assert main(["oracle", "--instance", str(tmp_path / "nope.txt")]) == 2

    def test_instance_is_directory(self, tmp_path, capsys):
        code = main(["solve", "--instance", str(tmp_path), "--rounds", "1"])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_out_is_directory(self, instance_file, tmp_path, capsys):
        code = main(["oracle", "--instance", instance_file, "--out", str(tmp_path)])
        assert code == 2
        assert "error" in capsys.readouterr().err


TSPLIB_DIMENSION_FIRST = """DIMENSION: 4
EDGE_WEIGHT_TYPE: EUC_2D
NODE_COORD_SECTION
1 0 0
2 10 0
3 10 10
4 0 10
EOF
"""


class TestNativeFileText:
    @pytest.mark.parametrize("kind", ["native", "tsplib", "heatmap"])
    def test_byte_order_mark_is_skipped(self, instance_file, tmp_path, kind):
        # a file saved with a UTF-8 byte-order mark gives the tour of the same
        # file saved without one
        inst_text = TSPLIB_DIMENSION_FIRST if kind == "tsplib" else Path(instance_file).read_text()
        n = 4 if kind == "tsplib" else 10
        heat_text = format_heatmap(np.full((n, n), 0.1))
        inst, heat, out = tmp_path / "inst.txt", tmp_path / "heat.txt", tmp_path / "tour.txt"
        tours = []
        for bom in ("", "\ufeff"):
            inst.write_text((bom if kind != "heatmap" else "") + inst_text, encoding="utf-8")
            heat.write_text((bom if kind == "heatmap" else "") + heat_text, encoding="utf-8")
            code = main([
                "search", "--instance", str(inst), "--heatmap", str(heat),
                "--rounds", "1", "--out", str(out),
            ])
            assert code == 0
            tours.append(out.read_text())
        assert tours[1] == tours[0]

    @pytest.mark.parametrize("inst_rows, heat_rows, message", [
        ("0 0\n1 x\n0 1", "0 1 1\n1 0 1\n1 1 0", "coordinate row 2: expected a number, found 'x'"),
        ("0 0\n1 0\n0 1", "0 1 1\n1 0 x\n1 1 0", "matrix row 2: expected a number, found 'x'"),
    ], ids=["instance", "heatmap"])
    def test_non_number_named(self, tmp_path, capsys, inst_rows, heat_rows, message):
        inst, heat = tmp_path / "inst.txt", tmp_path / "heat.txt"
        inst.write_text(f"UTSP-INSTANCE v1\n3\n{inst_rows}\n")
        heat.write_text(f"UTSP-HEATMAP v1\n3\n{heat_rows}\n")
        code = main([
            "search", "--instance", str(inst), "--heatmap", str(heat),
            "--rounds", "1", "--out", str(tmp_path / "t.txt"),
        ])
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("header", ["UTSP-INSTANCE v1\xa0", "UTSP-INSTANCE  v1"],
                             ids=["no-break-space", "two-spaces"])
    def test_native_header_variant_named(self, tmp_path, capsys, header):
        # a first line that starts with the native header's token is read as
        # a native instance, so the error names that format, not TSPLIB's
        inst = tmp_path / "inst.txt"
        inst.write_text(f"{header}\n3\n0 0\n1 0\n0 1\n", encoding="utf-8")
        code = main([
            "solve", "--instance", str(inst), "--rounds", "1", "--out", str(tmp_path / "t.txt"),
        ])
        assert code == 2
        assert capsys.readouterr().err == "error: not a UTSP-INSTANCE v1 document\n"

    @pytest.mark.parametrize("text", [
        "\n  UTSP-INSTANCE v1\t\n4\n0 0\n10 0\n10 10\n0 10\n",
        "NAME: UTSP-INSTANCE v1\n" + TSPLIB_DIMENSION_FIRST,
    ], ids=["native", "tsplib"])
    def test_format_sniff(self, tmp_path, text):
        # the header's first token decides the format: blank lines and the
        # spaces and tabs around a native header are skipped, and a TSPLIB
        # file that names the native header after its keyword stays TSPLIB
        path = tmp_path / "inst.txt"
        path.write_text(text, encoding="utf-8")
        assert read_instance_file(str(path)).coords.tolist() == [
            [0.0, 0.0], [10.0, 0.0], [10.0, 10.0], [0.0, 10.0]]

    @pytest.mark.parametrize("bad", ["instance", "heatmap"])
    def test_not_utf8_named(self, instance_file, tmp_path, capsys, bad):
        # UTF-16 text, as some editors save it, starts with a byte-order mark
        # that is not UTF-8
        heat = tmp_path / "heat.txt"
        heat.write_text(format_heatmap(np.full((10, 10), 0.1)))
        path = Path(instance_file) if bad == "instance" else heat
        path.write_bytes(path.read_text().encode("utf-16"))
        code = main([
            "search", "--instance", instance_file, "--heatmap", str(heat),
            "--rounds", "1", "--out", str(tmp_path / "t.txt"),
        ])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: {path}: not UTF-8 text (invalid start byte at byte 0)\n"
        )


@pytest.mark.parametrize("command", ["solve", "search"])
@pytest.mark.parametrize("old, new, message", [
    ("DIMENSION: 4\n", "", "missing DIMENSION header"),
    ("EDGE_WEIGHT_TYPE: EUC_2D\n", "", "missing EDGE_WEIGHT_TYPE header"),
    ("NODE_COORD_SECTION\n", "", "missing NODE_COORD_SECTION"),
    # index 1 twice: as many rows as DIMENSION, but none for city 2
    ("2 10 0", "1 10 0", "no coordinate row for city 2"),
], ids=["dimension", "weight-type", "coord-section", "city-2"])
def test_tsplib_missing_part_exits_2(tmp_path, capsys, command, old, new, message):
    inst, heat = tmp_path / "inst.tsp", tmp_path / "heat.txt"
    inst.write_text(TSPLIB_DIMENSION_FIRST.replace(old, new))
    heat.write_text(format_heatmap(np.full((4, 4), 0.1)))
    heat_args = ["--heatmap", str(heat)] if command == "search" else []
    code = main([command, "--instance", str(inst), *heat_args, "--rounds", "1",
                 "--out", str(tmp_path / "t.txt")])
    assert code == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_search_refuses_a_heat_map_of_another_size(tmp_path, capsys):
    inst, heat = tmp_path / "inst.txt", tmp_path / "heat.txt"
    inst.write_text(format_instance(generate_random(5, 0)))
    heat.write_text(format_heatmap(np.full((6, 6), 0.1)))
    code = main(["search", "--instance", str(inst), "--heatmap", str(heat), "--rounds", "1",
                 "--out", str(tmp_path / "t.txt")])
    assert code == 2
    assert capsys.readouterr().err == "error: heat map is 6x6 but instance has 5 cities\n"


@pytest.mark.parametrize("command, count", [
    ("coverage", "-3"), ("coverage", "0"), ("bench", "0"), ("bench", "-1"),
])
def test_rejects_non_positive_count(tmp_path, capsys, command, count):
    out = tmp_path / "out.txt"
    code = main([command, "--n", "8", "--count", count, "--out", str(out)])
    assert code == 2
    assert "--count must be >= 1" in capsys.readouterr().err
    assert not out.exists()


class TestCoverageCommand:
    def test_csv_output(self, tmp_path):
        out = tmp_path / "cov.csv"
        code = main([
            "coverage", "--n", "10", "--count", "3", "--m", "4",
            "--steps", "60", "--seed", "0", "--out", str(out),
        ])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "instance,seed,M,eta,pi_size,fully_covered"
        assert len(lines) == 4

    def test_several_m_match_single_runs(self, tmp_path, capsys):
        def run(*m_values):
            out = tmp_path / "cov.csv"
            code = main([
                "coverage", "--n", "9", "--count", "3", "--m", *m_values,
                "--steps", "40", "--seed", "2", "--out", str(out),
            ])
            assert code == 0
            return out.read_text().strip().splitlines()

        both = run("3", "4")
        assert capsys.readouterr().err.splitlines()[1].startswith("M=4 ")
        assert both == run("3") + run("4")[1:]

    @pytest.mark.parametrize("n, m, message", [
        ("18", "20", "m must be in [1, 17], got 20"),
        ("21", "5", "at most n=20 cities, got 21"),
    ], ids=["m-above-n-1", "n-above-oracle"])
    def test_checks_before_any_fit(self, tmp_path, capsys, monkeypatch, n, m, message):
        def no_fit(inst, cfg):
            raise AssertionError("optimize_heatmap ran before the checks")

        monkeypatch.setattr("tspheat.bench.optimize_heatmap", no_fit)
        out = tmp_path / "cov.csv"
        code = main(["coverage", "--n", n, "--count", "2", "--m", "3", m, "--out", str(out)])
        assert code == 2
        assert message in capsys.readouterr().err
        assert not out.exists()


class TestBenchCommand:
    def test_json_output(self, tmp_path):
        out = tmp_path / "bench.json"
        code = main([
            "bench", "--n", "8", "--count", "2",
            "--rounds", "3", "--steps", "60", "--format", "json",
            "--seed", "1", "--out", str(out),
        ])
        assert code == 0
        rows = json.loads(out.read_text())
        assert len(rows) == 4  # pipeline + baseline per instance
        assert list(rows[0]) == [
            "instance", "method", "length", "gap_percent",
            "heatmap_seconds", "search_seconds", "seed",
        ]
        methods = {r["method"] for r in rows}
        assert methods == {"pipeline", "nn+2opt+oropt"}
        for r in rows:
            assert r["gap_percent"] is not None and r["gap_percent"] >= -1e-9
            # the baseline has no heat-map phase; its construction and its
            # 2-opt and Or-opt pass are timed as its search phase
            if r["method"] == "nn+2opt+oropt":
                assert r["heatmap_seconds"] == 0.0
                assert r["search_seconds"] > 0.0

    def test_optimal_tours_report_zero_gap(self, tmp_path):
        # these optima and the pipeline's tours sum the same edges in
        # different orders, so their lengths differ in the last digits; the
        # baseline's gap is its excess over the same optimum (0.887% at
        # seed 0, where it stops short of the optimum)
        out = tmp_path / "bench.json"
        code = main([
            "bench", "--n", "10", "--count", "2",
            "--rounds", "12", "--format", "json", "--out", str(out),
        ])
        assert code == 0
        rows = json.loads(out.read_text())
        assert [r["method"] for r in rows] == ["pipeline", "nn+2opt+oropt"] * 2
        for seed, (pipeline, baseline) in enumerate(zip(rows[0::2], rows[1::2])):
            _, opt = held_karp_exact(generate_random(10, seed))
            assert pipeline["gap_percent"] == 0.0
            assert baseline["gap_percent"] == gap_percent(baseline["length"], opt)

    def test_default_preset_is_the_instance_tier(self, tmp_path):
        out = tmp_path / "bench.json"
        code = main([
            "bench", "--n", "10", "--count", "2", "--rounds", "12",
            "--format", "json", "--out", str(out),
        ])
        assert code == 0
        lengths = [r["length"] for r in json.loads(out.read_text()) if r["method"] == "pipeline"]
        params = PRESETS["tsp20"].with_budget(max_rounds=12)
        expect = [
            solve_pipeline(generate_random(10, seed), TrainConfig(seed=seed), params, seed)[0].length
            for seed in (0, 1)
        ]
        assert lengths == expect

    def test_requires_budget_before_any_work(self, tmp_path, capsys, monkeypatch):
        def no_solve(inst):
            raise AssertionError("held_karp_exact ran before the budget check")

        monkeypatch.setattr("tspheat.bench.held_karp_exact", no_solve)
        out = tmp_path / "bench.csv"
        code = main(["bench", "--n", "12", "--count", "2", "--out", str(out)])
        assert code == 2
        assert "set --time-budget and/or --rounds" in capsys.readouterr().err
        assert not out.exists()

    def test_csv_default(self, tmp_path):
        out = tmp_path / "bench.csv"
        code = main([
            "bench", "--n", "8", "--count", "1",
            "--rounds", "3", "--steps", "60", "--seed", "1", "--out", str(out),
        ])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 3


@pytest.mark.parametrize("command, target", [
    ("search", ["--instance", "i.txt", "--heatmap", "h.txt"]),
    ("solve", ["--instance", "i.txt"]),
    ("bench", ["--n", "8"]),
])
def test_preset_option_is_refused(capsys, command, target):
    # the search preset follows from the instance size (search.preset_for)
    with pytest.raises(SystemExit) as exc:
        main([command, *target, "--preset", "tsp20", "--rounds", "1"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --preset tsp20" in capsys.readouterr().err


@pytest.mark.parametrize("command, target", [
    ("train-heatmap", ["--instance", "i.txt"]),
    ("solve", ["--instance", "i.txt", "--rounds", "1"]),
    ("coverage", []),
    ("bench", ["--rounds", "1"]),
    ("oracle", ["--instance", "i.txt"]),
])
def test_init_scale_option_is_refused(capsys, command, target):
    # the spread of the initial logits, the step size and the loss weights
    # are constants of the fit (generator.INIT_SCALE, TrainConfig's class
    # constants); oracle draws no random number, so it takes no seed
    refused = [["--init-scale", "0.5"], ["--lr", "0.05"], ["--lambda1", "2"], ["--lambda2", "1"]]
    if command == "oracle":
        refused.append(["--seed", "1"])
    for flag in refused:
        with pytest.raises(SystemExit) as exc:
            main([command, *target, *flag])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err


def test_readme_cli_block_parses():
    block = README.read_text(encoding="utf-8").split("## CLI", 1)[1]
    block = block.split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line for line in block.splitlines() if line.startswith("tspheat ")]
    parser = build_parser()
    commands = {parser.parse_args(shlex.split(line, comments=True)[1:]).command for line in lines}
    assert commands == {"generate", "train-heatmap", "search", "solve", "oracle", "baseline",
                        "coverage", "bench"}


def test_readme_library_example_runs(capsys):
    # the documented API: every name the example reads is exported; the run
    # forks the search worker, which conftest's autouse fixture then stops
    block = README.read_text(encoding="utf-8").split("## Library example", 1)[1]
    block = block.split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    exec(compile(block, "README.md", "exec"), namespace)
    stats, tour = namespace["stats"], namespace["tour"]
    assert tour.n == 100
    assert 1 <= stats.rounds <= 25
    printed = capsys.readouterr().out.splitlines()
    assert printed == [f"{stats.best_length} {stats.rounds} {stats.total_expansions}",
                       f"{stats.lower_bound} {stats.proof_round}"]
