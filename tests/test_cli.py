import json

import numpy as np
import pytest

from tspheat.cli import main
from tspheat.heatmap import format_heatmap, parse_heatmap
from tspheat.instances import Instance, format_instance, generate_random, parse_instance
from tspheat.search import parse_tour


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

    @pytest.mark.parametrize("flag, value", [
        ("--lr", "nan"), ("--lambda1", "inf"), ("--lambda2", "nan"), ("--init-scale", "inf"),
    ])
    def test_rejects_non_finite_setting(self, instance_file, tmp_path, capsys, flag, value):
        code = main([
            "train-heatmap", "--instance", instance_file, "--steps", "5",
            flag, value, "--out", str(tmp_path / "heat.txt"),
        ])
        assert code == 2
        assert "must be finite" in capsys.readouterr().err


class TestSearchCommand:
    def test_search_from_heatmap_file(self, instance_file, tmp_path):
        heat_path = tmp_path / "heat.txt"
        main(["train-heatmap", "--instance", instance_file, "--steps", "60",
              "--seed", "3", "--out", str(heat_path)])
        tour_path = tmp_path / "tour.txt"
        code = main([
            "search", "--instance", instance_file, "--heatmap", str(heat_path),
            "--preset", "tsp20", "--rounds", "6", "--seed", "3",
            "--out", str(tour_path),
        ])
        assert code == 0
        tour, length = parse_tour(tour_path.read_text())
        assert sorted(tour.order.tolist()) == list(range(10))
        assert length > 0

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -0.25])
    def test_rejects_bad_heatmap_entry(self, instance_file, tmp_path, capsys, bad):
        heat = np.full((10, 10), 0.1)
        heat[2, 7] = bad
        heat_path = tmp_path / "heat.txt"
        heat_path.write_text(format_heatmap(heat))
        code = main([
            "search", "--instance", instance_file, "--heatmap", str(heat_path),
            "--preset", "tsp20", "--rounds", "2", "--seed", "3",
            "--out", str(tmp_path / "t.txt"),
        ])
        assert code == 2
        assert "heat-map entries" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["search", "solve"])
    def test_expired_budget_still_writes_tour(self, instance_file, tmp_path, command):
        heat_path = tmp_path / "heat.txt"
        heat_path.write_text(format_heatmap(np.full((10, 10), 0.1)))
        heat_args = ["--heatmap", str(heat_path)] if command == "search" else []
        tour_path = tmp_path / "tour.txt"
        code = main([
            command, "--instance", instance_file, *heat_args, "--preset", "tsp20",
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
            command, "--instance", files["instance"], *heat_args, "--preset", "tsp20",
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
            command, "--instance", str(inst_path), *heat_args, "--preset", "tsp20",
            "--rounds", "2", "--out", str(tmp_path / "t.txt"),
        ])
        assert code == 2
        assert "overflows" in capsys.readouterr().err

    @pytest.mark.parametrize("budget", ["nan", "inf"])
    def test_non_finite_time_budget_exits_2(self, instance_file, tmp_path, capsys, budget):
        code = main([
            "solve", "--instance", instance_file, "--preset", "tsp20",
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
            "--preset", "tsp20", "--seed", "3", "--out", str(tmp_path / "t.txt"),
        ])
        assert code == 2


class TestSolve:
    def test_end_to_end_optimal(self, instance_file, tmp_path):
        tour_path = tmp_path / "tour.txt"
        svg_path = tmp_path / "tour.svg"
        code = main([
            "solve", "--instance", instance_file, "--preset", "tsp20",
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
            "solve", "--instance", str(inst_path), "--preset", "tsp20",
            "--rounds", "2", "--seed", "4", "--out", str(tour_path),
        ])
        assert code == 0
        tour, length = parse_tour(tour_path.read_text())
        assert sorted(tour.order.tolist()) == list(range(30))
        assert np.isfinite(length) and length > 0

    def test_reports_stage_seconds(self, instance_file, tmp_path, capsys):
        code = main([
            "solve", "--instance", instance_file, "--preset", "tsp20",
            "--rounds", "3", "--seed", "3", "--out", str(tmp_path / "tour.txt"),
        ])
        assert code == 0
        fields = dict(f.split("=") for f in capsys.readouterr().err.split())
        assert list(fields) == ["length", "heatmap_s", "search_s", "two_opt_s",
                                "attempts", "dead_ends", "cap_hits", "improving"]
        assert 0.0 <= float(fields["two_opt_s"]) <= float(fields["search_s"])
        ends = [int(fields[k]) for k in ("dead_ends", "cap_hits", "improving")]
        assert int(fields["attempts"]) == sum(ends) > 0


class TestOracleAndBaseline:
    def test_oracle(self, instance_file, tmp_path):
        out = tmp_path / "opt.txt"
        assert main(["oracle", "--instance", instance_file, "--out", str(out)]) == 0
        tour, length = parse_tour(out.read_text())
        assert sorted(tour.order.tolist()) == list(range(10))

    def test_oracle_guard(self, tmp_path, capsys):
        big = tmp_path / "big.txt"
        big.write_text(format_instance(generate_random(19, 0)))
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


class TestBenchCommand:
    def test_json_output(self, tmp_path):
        out = tmp_path / "bench.json"
        code = main([
            "bench", "--n", "8", "--count", "2", "--preset", "tsp20",
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
        assert methods == {"pipeline", "nn+2opt"}
        for r in rows:
            assert r["gap_percent"] is not None and r["gap_percent"] >= -1e-9

    def test_optimal_tours_report_zero_gap(self, tmp_path):
        # these optima and the tours found for them sum the same edges in
        # different orders, so their lengths differ in the last digits
        out = tmp_path / "bench.json"
        code = main([
            "bench", "--n", "10", "--count", "2", "--preset", "tsp20",
            "--rounds", "12", "--format", "json", "--out", str(out),
        ])
        assert code == 0
        assert [r["gap_percent"] for r in json.loads(out.read_text())] == [0.0] * 4

    def test_csv_default(self, tmp_path):
        out = tmp_path / "bench.csv"
        code = main([
            "bench", "--n", "8", "--count", "1", "--preset", "tsp20",
            "--rounds", "3", "--steps", "60", "--seed", "1", "--out", str(out),
        ])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 3
