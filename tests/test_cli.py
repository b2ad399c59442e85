"""End-to-end checks of the command-line interface."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fockspace import canonical, cli, interpolation, sampling, scale_lattice_to_density, square_lattice
from fockspace.cli import main
from fockspace.errors import ValidationError
from fockspace.io import dumps_json, problem_doc
from fockspace.space import MAX_EXP

ALPHA = 1.0
SUPER_SPACING = math.sqrt(math.pi / 1.5)
SUB_SPACING = math.sqrt(math.pi / 0.8)
CRIT_SPACING = math.sqrt(math.pi)


def write_problem(path, spacing, window, data_fn):
    gamma = square_lattice(spacing, window)
    nodes = [complex(z) for z in gamma.points]
    data = [data_fn(z) for z in nodes]
    doc = problem_doc(ALPHA, spacing, nodes, data)
    path.write_text(dumps_json(doc) + "\n", encoding="utf-8")
    return path


@pytest.fixture(scope="module")
def recon_problem(tmp_path_factory):
    path = tmp_path_factory.mktemp("problems") / "recon.json"
    return write_problem(path, SUPER_SPACING, 12.0, lambda z: 1.0 + 0.0j)


@pytest.fixture(scope="module")
def interp_problem(tmp_path_factory):
    path = tmp_path_factory.mktemp("problems") / "interp.json"
    return write_problem(
        path, SUB_SPACING, 12.0, lambda z: 1.0 + 0.0j if abs(z) < 1e-9 else 0.0j
    )


@pytest.fixture(scope="module")
def critical_problem(tmp_path_factory):
    path = tmp_path_factory.mktemp("problems") / "critical.json"
    return write_problem(path, CRIT_SPACING, 8.0, lambda z: 1.0 + 0.0j)


def read_report(out_dir, command):
    name = command.replace("-", "_") + "_report.json"
    return json.loads((out_dir / name).read_text(encoding="utf-8"))


def error_doc(capsys, *fields):
    """The one-line error JSON: error and message first, then exactly ``fields``."""
    err = capsys.readouterr().err.strip()
    assert "\n" not in err
    doc = json.loads(err)
    assert list(doc) == ["error", "message", *fields]
    return doc


class TestLattice:
    def test_spacing_one_window_gives_nine_rows(self, tmp_path):
        rc = main(
            ["lattice", "--spacing", "1", "--window", "1.5", "--out", str(tmp_path)]
        )
        assert rc == 0
        lines = (tmp_path / "points.csv").read_text().splitlines()
        assert lines[0] == "x,y,m,n"
        assert len(lines) == 1 + 9
        report = read_report(tmp_path, "lattice")
        assert report["results"]["count"] == 9
        assert report["results"]["separation"] == 1.0

    def test_json_format_round_trips(self, tmp_path):
        rc = main(
            [
                "lattice",
                "--spacing",
                "1",
                "--window",
                "1.5",
                "--format",
                "json",
                "--out",
                str(tmp_path),
            ]
        )
        assert rc == 0
        doc = json.loads((tmp_path / "points.json").read_text())
        assert doc["window_radius"] == 1.5
        assert len(doc["points"]) == 9
        assert len(doc["indices"]) == 9

    def test_report_embeds_full_config(self, tmp_path):
        main(["lattice", "--spacing", "1", "--window", "1.5", "--out", str(tmp_path)])
        config = read_report(tmp_path, "lattice")["config"]
        expected = {
            "alpha",
            "spacing",
            "density_ratio",
            "window",
            "perturb",
            "seed",
            "format",
            "out",
        }
        assert expected <= set(config)
        assert config["alpha"] == 1.0
        assert config["density_ratio"] is None

    def test_perturb_without_seed_rejected(self, tmp_path, capsys):
        out = tmp_path / "nope"
        rc = main(
            [
                "lattice",
                "--spacing",
                "1",
                "--window",
                "1.5",
                "--perturb",
                "0.2",
                "--out",
                str(out),
            ]
        )
        assert rc == 2
        assert not out.exists()
        assert error_doc(capsys)["error"] == "ValidationError"

    def test_spacing_and_ratio_conflict(self, tmp_path, capsys):
        rc = main(
            [
                "lattice",
                "--spacing",
                "1",
                "--density-ratio",
                "1.2",
                "--window",
                "2",
                "--out",
                str(tmp_path),
            ]
        )
        assert rc == 2
        error_doc(capsys)

    def test_deterministic_reports(self, tmp_path):
        argv = [
            "lattice",
            "--spacing",
            "1",
            "--window",
            "4",
            "--perturb",
            "0.2",
            "--seed",
            "11",
            "--out",
            str(tmp_path),
        ]
        assert main(argv) == 0
        first_csv = (tmp_path / "points.csv").read_bytes()
        first_report = (tmp_path / "lattice_report.json").read_text().splitlines()
        assert main(argv) == 0
        second_csv = (tmp_path / "points.csv").read_bytes()
        second_report = (tmp_path / "lattice_report.json").read_text().splitlines()
        assert first_csv == second_csv
        kept_a = [ln for ln in first_report if "wall_time_s" not in ln]
        kept_b = [ln for ln in second_report if "wall_time_s" not in ln]
        assert kept_a == kept_b


class TestValidationExits:
    def test_negative_alpha_exits_2_without_files(self, tmp_path, capsys):
        out = tmp_path / "fresh"
        rc = main(
            [
                "frame",
                "--alpha",
                "-1",
                "--spacing",
                "1",
                "--window",
                "5",
                "--out",
                str(out),
            ]
        )
        assert rc == 2
        assert not out.exists()
        doc = error_doc(capsys)
        assert doc["error"] == "ValidationError"
        assert "alpha" in doc["message"]

    def test_bad_radii_ladder(self, tmp_path, capsys):
        rc = main(
            [
                "density",
                "--in",
                "unused.csv",
                "--window",
                "2",
                "--radii",
                "5:1:1",
                "--out",
                str(tmp_path),
            ]
        )
        assert rc == 2
        error_doc(capsys)

    def test_bad_grid_spec(self, tmp_path, capsys, recon_problem):
        rc = main(
            [
                "reconstruct",
                "--in",
                str(recon_problem),
                "--truncation-radius",
                "8",
                "--grid",
                "1,2,3",
                "--out",
                str(tmp_path),
            ]
        )
        assert rc == 2
        error_doc(capsys)

    @pytest.mark.parametrize(
        "argv",
        [
            ["density", "--in", "points.csv", "--window", "6", "--radii=nan:5:1"],
            ["density", "--in", "points.csv", "--window", "6", "--radii=5:inf:1"],
            ["sigma-grid", "--spacing", "1", "--grid=-3,inf,-3,3,0.1"],
        ],
    )
    def test_non_finite_ladder_or_grid_exits_2_without_files(self, tmp_path, capsys, argv):
        main(["lattice", "--spacing", "1", "--window", "6", "--out", str(tmp_path)])
        capsys.readouterr()
        argv = [str(tmp_path / a) if a == "points.csv" else a for a in argv]
        out = tmp_path / "fresh"
        rc = main(argv + ["--out", str(out)])
        assert rc == 2
        assert not out.exists()
        doc = error_doc(capsys)
        assert doc["error"] == "ValidationError"
        assert "finite" in doc["message"]

    @pytest.mark.parametrize(
        "argv",
        [
            ["density", "--in", "letters.csv", "--window", "3"],
            ["density", "--in", "one_column.csv", "--window", "3"],
            ["reconstruct", "--in", "text_alpha.json"],
            ["reconstruct", "--in", "nan_alpha.json"],
            ["density", "--in", "points.csv", "--window", "6", "--radii=5:6:1e-300"],
            ["sigma-grid", "--spacing", "1", "--grid=-3,3,-3,3,1e-300"],
        ],
    )
    def test_malformed_input_exits_2_without_files(
        self, tmp_path, capsys, recon_problem, argv
    ):
        main(["lattice", "--spacing", "1", "--window", "6", "--out", str(tmp_path)])
        capsys.readouterr()
        (tmp_path / "letters.csv").write_text("x,y\n0,0\nabc,1\n")
        (tmp_path / "one_column.csv").write_text("x,y\n0,0\n1\n")
        doc = json.loads(recon_problem.read_text())
        for name, alpha in (("text_alpha.json", "abc"), ("nan_alpha.json", math.nan)):
            (tmp_path / name).write_text(json.dumps({**doc, "alpha": alpha}))
        if argv[0] == "reconstruct":
            argv = argv + ["--truncation-radius", "8", "--grid=-1,1,-1,1,0.5"]
        argv = [str(tmp_path / a) if a.endswith((".csv", ".json")) else a for a in argv]
        out = tmp_path / "fresh"
        rc = main(argv + ["--out", str(out)])
        assert rc == 2
        assert not out.exists()
        assert error_doc(capsys)["error"] == "ValidationError"

    @pytest.mark.parametrize("step", ["0.25", "0", "-0.25", "inf", "nan"])
    def test_bad_translate_step_exits_2(self, tmp_path, capsys, step):
        # density has no --translate-step: argparse rejects any value
        out = tmp_path / "fresh"
        with pytest.raises(SystemExit) as info:
            main(["density", "--in", "points.csv", "--window", "6",
                  f"--translate-step={step}", "--out", str(out)])
        assert info.value.code == 2
        assert not out.exists()
        assert "--translate-step" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["sigma-grid", "--spacing", "1e-170", "--grid=-1,1,-1,1,0.5"],
            ["lattice", "--spacing", "1e-300", "--window", "1"],
            ["frame", "--spacing", "1e-300", "--window", "1", "--degree-ladder", "4"],
            # a 1001^2 frame matrix
            ["frame", "--spacing", "1", "--window", "3", "--degree-ladder", "8,1000"],
            # 1001^2 index pairs, one odd side past the cap
            ["lattice", "--spacing", "1", "--window", "500"],
            ["lattice", "--alpha", "1e300", "--density-ratio", "1e300", "--window", "1"],
            ["growth-check", "--alpha", "1", "--spacing", "1", "--window", "10",
             "--grid-radius", "5", "--grid-step", "1e-3"],
            ["growth-check", "--alpha", "1", "--spacing", "1", "--window", "10",
             "--grid-radius", "5", "--grid-step", "1e-300"],
            ["growth-check", "--alpha", "1", "--spacing", "1", "--window", "250",
             "--grid-radius", "125", "--grid-step", "0.25"],
        ],
    )
    def test_oversized_request_exits_2_without_files(self, tmp_path, capsys, monkeypatch, argv):
        # counted before anything is built: neither the lattice nor the grid is
        def refuse(*args):
            raise AssertionError("built a rejected request")

        monkeypatch.setattr(cli, "square_lattice", refuse)
        monkeypatch.setattr(canonical, "_disk_grid", refuse)
        monkeypatch.setattr(sampling, "frame_matrix", refuse)
        out = tmp_path / "fresh"
        rc = main(argv + ["--out", str(out)])
        assert rc == 2
        assert not out.exists()
        assert error_doc(capsys)["error"] == "ValidationError"

    @pytest.mark.parametrize(
        "flag, value, what",
        [
            # the bound grid's (2 floor(R) + 1)^2 square: 1 442 401 points
            ("--truncation-radius", "600", "--truncation-radius's bound grid"),
            # (N + 1) n_theta norm-growth circle points: 8 200 192 and 32 784 384
            ("--degree", "1000", "--degree's norm-growth circles"),
            ("--degree", "2000", "--degree's norm-growth circles"),
        ],
    )
    def test_oversized_interpolate_exits_2_without_files(
        self, tmp_path, capsys, monkeypatch, interp_problem, flag, value, what
    ):
        def refuse(*args):
            raise AssertionError("built a rejected request")

        monkeypatch.setattr(interpolation, "_disk_grid", refuse)
        monkeypatch.setattr(cli, "norm_growth_report", refuse)
        out = tmp_path / "fresh"
        # argparse keeps the last of a repeated flag
        rc = main(["interpolate", "--in", str(interp_problem), "--grid=0,1,0,1,1",
                   "--truncation-radius", "10", "--degree", "8", flag, value, "--out", str(out)])
        assert rc == 2
        assert not out.exists()
        assert error_doc(capsys)["message"] == f"{what} asks for more than 1000000 points"

    @pytest.mark.parametrize(
        "flag, at_cap, past_cap",
        [
            # 999^2 and 1001^2 points in the bound grid
            ("--truncation-radius", "499.999", "500"),
            # 1000^2 and 1001^2 cells in the largest frame matrix
            ("--degree-ladder", "8,999", "1000,8"),
        ],
    )
    def test_caps_are_exact(self, tmp_path, capsys, monkeypatch, interp_problem, flag, at_cap, past_cap):
        # at the cap the request reaches its builder, one past it does not
        class Reached(Exception):
            pass

        def reached(*args):
            raise Reached

        monkeypatch.setattr(interpolation, "_disk_grid", reached)
        monkeypatch.setattr(sampling, "frame_matrix", reached)
        if flag == "--truncation-radius":
            argv = ["interpolate", "--in", str(interp_problem), "--grid=0,1,0,1,1"]
        else:
            argv = ["frame", "--spacing", "1", "--window", "3"]
        out = tmp_path / "fresh"
        with pytest.raises(Reached):
            main(argv + [flag, at_cap, "--out", str(out)])
        assert main(argv + [flag, past_cap, "--out", str(out)]) == 2
        assert error_doc(capsys)["message"].startswith(f"{flag}'s ")
        assert not out.exists()

    def test_norm_growth_cap_is_exact(self, tmp_path, capsys, monkeypatch, interp_problem):
        # the largest degree whose (N + 1) n_theta circle points fit the cap,
        # counted from the nodes within the truncation radius 10
        nodes = square_lattice(SUB_SPACING, 12.0).points
        top = float(np.max(np.abs(nodes[np.abs(nodes) <= 10.0])))

        def count(N):
            return (N + 1) * interpolation._angle_count(ALPHA, top, math.sqrt(N / ALPHA), N)

        degree = max(N for N in range(1, 1001) if count(N) <= 1_000_000)
        assert count(degree + 1) > 1_000_000

        class Reached(Exception):
            pass

        def reached(ev, N):
            assert N == degree
            raise Reached

        monkeypatch.setattr(cli, "norm_growth_report", reached)
        argv = ["interpolate", "--in", str(interp_problem), "--truncation-radius", "10",
                "--grid=0,1,0,1,1", "--out", str(tmp_path / "fresh")]
        with pytest.raises(Reached):
            main(argv + ["--degree", str(degree)])
        assert main(argv + ["--degree", str(degree + 1)]) == 2
        assert error_doc(capsys)["message"].startswith("--degree's norm-growth circles")
        assert not (tmp_path / "fresh").exists()

    def test_index_square_cap_is_exact(self):
        cli._check_square(499.999, "999^2 points")
        with pytest.raises(ValidationError, match="^1001\\^2 points asks for more than 1000000"):
            cli._check_square(500.0, "1001^2 points")

    def test_memory_error_exits_2_without_files(self, tmp_path, capsys, monkeypatch):
        def exhausted(args):
            raise MemoryError("Unable to allocate 298. GiB")

        monkeypatch.setitem(cli._HANDLERS, "lattice", exhausted)
        out = tmp_path / "fresh"
        rc = main(["lattice", "--spacing", "1", "--window", "5", "--out", str(out)])
        assert rc == 2
        assert not out.exists()
        doc = error_doc(capsys)
        assert doc == {"error": "MemoryError", "message": "Unable to allocate 298. GiB"}

    def test_csv_point_set_needs_window(self, tmp_path, capsys):
        src = tmp_path / "pts.csv"
        main(["lattice", "--spacing", "1", "--window", "2", "--out", str(tmp_path)])
        (tmp_path / "points.csv").rename(src)
        rc = main(["density", "--in", str(src), "--out", str(tmp_path / "d")])
        assert rc == 2
        error_doc(capsys)


class TestDensity:
    def test_unit_lattice_counts(self, tmp_path):
        main(["lattice", "--spacing", "1", "--window", "6", "--out", str(tmp_path)])
        rc = main(
            [
                "density",
                "--in",
                str(tmp_path / "points.csv"),
                "--window",
                "6",
                "--radii",
                "2.5:2.5:1",
                "--out",
                str(tmp_path),
            ]
        )
        assert rc == 0
        report = read_report(tmp_path, "density")
        assert report["results"]["radii"] == [2.5]
        assert report["results"]["n_minus"] == [4]
        assert report["results"]["n_plus"] == [9]
        table = (tmp_path / "density_table.csv").read_text().splitlines()
        assert table[0] == "radius,n_minus,n_plus,reliable"
        assert len(table) == 2

    def test_json_point_set_input(self, tmp_path):
        main(
            [
                "lattice",
                "--spacing",
                "1",
                "--window",
                "6",
                "--format",
                "json",
                "--out",
                str(tmp_path),
            ]
        )
        rc = main(
            [
                "density",
                "--in",
                str(tmp_path / "points.json"),
                "--radii",
                "2.5:2.5:1",
                "--out",
                str(tmp_path),
            ]
        )
        assert rc == 0
        report = read_report(tmp_path, "density")
        assert report["results"]["n_minus"] == [4]


class TestFrame:
    def test_density_ordering_of_lower_bounds(self, tmp_path):
        outs = {}
        for ratio in (0.8, 1.2):
            out = tmp_path / str(ratio)
            rc = main(
                [
                    "frame",
                    "--alpha",
                    "1",
                    "--density-ratio",
                    str(ratio),
                    "--window",
                    "10",
                    "--degree-ladder",
                    "12",
                    "--out",
                    str(out),
                ]
            )
            assert rc == 0
            outs[ratio] = read_report(out, "frame")
        a_low = outs[0.8]["results"]["estimate"]["A"]
        a_high = outs[1.2]["results"]["estimate"]["A"]
        assert 0 < a_low < a_high

    @pytest.mark.parametrize(
        "ladder, built",
        [
            # the ladder's 16 and 32, then 24, 36 and 48 for the estimate
            ("16,32,48", [16, 24, 32, 36, 48]),
            # 24 is also the estimate's N/2
            ("24,48", [24, 36, 48]),
        ],
    )
    def test_each_degree_solved_once(self, tmp_path, monkeypatch, ladder, built):
        calls = {"frame_matrix": [], "frame_bounds": []}
        for module, name in ((sampling, "frame_matrix"), (cli, "frame_bounds")):
            def counted(gamma, alpha, N, fn=getattr(module, name), name=name):
                calls[name].append(N)
                return fn(gamma, alpha, N)

            monkeypatch.setattr(module, name, counted)
        argv = ["frame", "--density-ratio", "1.2", "--window", "14",
                "--degree-ladder", ladder, "--out", str(tmp_path)]
        assert main(argv) == 0
        assert sorted(calls["frame_matrix"]) == built
        assert calls["frame_bounds"] == [48]
        ladder = read_report(tmp_path, "frame")["results"]["ladder"]
        monkeypatch.undo()
        gamma = scale_lattice_to_density(1.0, 1.2, 14.0)
        for row in ladder:
            est = sampling.frame_bounds(gamma, 1.0, row["degree"])
            assert (row["A"], row["B"]) == (est.A, est.B)

    def test_ladder_table_matches_report(self, tmp_path):
        rc = main(
            [
                "frame",
                "--alpha",
                "1",
                "--spacing",
                "1.2",
                "--window",
                "8",
                "--degree-ladder",
                "6,10",
                "--out",
                str(tmp_path),
            ]
        )
        assert rc == 0
        report = read_report(tmp_path, "frame")
        ladder = report["results"]["ladder"]
        assert [row["degree"] for row in ladder] == [6, 10]
        table = (tmp_path / "frame_table.csv").read_text().splitlines()
        assert table[0] == "N,A_N,B_N"
        assert len(table) == 3
        last = table[-1].split(",")
        assert int(last[0]) == 10
        assert float(last[1]) == pytest.approx(ladder[-1]["A"])
        assert report["results"]["estimate"]["degree"] == 10


class TestReconstruct:
    def test_constant_function_recovered(self, tmp_path, recon_problem):
        rc = main(
            [
                "reconstruct",
                "--in",
                str(recon_problem),
                "--truncation-radius",
                "8",
                "--grid=-1,1,-1,1,0.5",
                "--out",
                str(tmp_path),
            ]
        )
        assert rc == 0
        rows = np.loadtxt(
            tmp_path / "recon_grid.csv", delimiter=",", skiprows=1, ndmin=2
        )
        values = rows[:, 2] + 1j * rows[:, 3]
        assert rows.shape[0] == 25
        assert np.max(np.abs(values - 1.0)) <= 1e-2
        report = read_report(tmp_path, "reconstruct")
        assert report["results"]["grid_points"] == 25

    def test_grid_bytes_do_not_depend_on_blas_threads(self, tmp_path, recon_problem):
        # the series sums its nodes with a fixed-order np.sum, not a BLAS
        # product whose blocking follows the thread count
        src = Path(__file__).resolve().parent.parent / "src"
        grids = []
        for threads in ("1", "2"):
            out = tmp_path / threads
            proc = subprocess.run(
                [sys.executable, "-m", "fockspace", "reconstruct", "--in", str(recon_problem),
                 "--truncation-radius", "8", "--grid=-3.9,3.9,-3.9,3.9,0.1", "--out", str(out)],
                capture_output=True,
                text=True,
                env={**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": threads},
            )
            assert proc.returncode == 0, proc.stderr
            grids.append((out / "recon_grid.csv").read_bytes())
        assert grids[0] == grids[1]

    def test_overflow_exits_3_without_files(self, tmp_path, capsys):
        # samples of alternating sign by index parity, just below the
        # largest double: the value between nodes passes the double range
        problem = write_problem(
            tmp_path / "huge.json",
            SUPER_SPACING,
            8.0,
            lambda z: 1.7e308 * (-1.0) ** round(z.real / SUPER_SPACING + z.imag / SUPER_SPACING),
        )
        x = 0.5 * SUPER_SPACING
        out = tmp_path / "fresh"
        rc = main(
            [
                "reconstruct",
                "--in",
                str(problem),
                "--truncation-radius",
                "8",
                f"--grid={x!r},{x!r},{x!r},{x!r},1",
                "--out",
                str(out),
            ]
        )
        assert rc == 3
        assert not out.exists()
        doc = error_doc(capsys, "log_mag", "radius")
        assert doc["error"] == "Overflow"
        assert doc["radius"] == abs(complex(x, x))
        assert doc["log_mag"] >= MAX_EXP
        assert doc["message"].startswith("reconstruction log modulus ")

    @pytest.mark.parametrize(
        "bad", [complex(v, 0.0) for v in (math.nan, math.inf, -math.inf)]
        + [complex(0.0, v) for v in (math.nan, math.inf, -math.inf)],
    )
    def test_non_finite_sample_exits_2_without_files(self, tmp_path, capsys, bad):
        # otherwise a NaN report and NaN grid rows would pass as a success
        node = complex(SUPER_SPACING, 0.0)
        problem = write_problem(
            tmp_path / "bad.json", SUPER_SPACING, 8.0, lambda z: bad if z == node else 1.0 + 0.0j
        )
        out = tmp_path / "fresh"
        rc = main(
            [
                "reconstruct",
                "--in",
                str(problem),
                "--truncation-radius",
                "7",
                "--grid=-1,1,-1,1,0.5",
                "--out",
                str(out),
            ]
        )
        assert rc == 2
        assert not out.exists()
        doc = error_doc(capsys, "point")
        assert doc["error"] == "ValidationError"
        assert doc["point"] == [node.real, node.imag]

    def test_grid_clipped_to_interior(self, tmp_path, recon_problem):
        rc = main(
            [
                "reconstruct",
                "--in",
                str(recon_problem),
                "--truncation-radius",
                "8",
                "--grid=-6,6,0,0,1",
                "--out",
                str(tmp_path),
            ]
        )
        assert rc == 0
        rows = np.loadtxt(
            tmp_path / "recon_grid.csv", delimiter=",", skiprows=1, ndmin=2
        )
        assert np.max(np.hypot(rows[:, 0], rows[:, 1])) < 4.0

    def test_subcritical_problem_rejected(self, tmp_path, capsys, interp_problem):
        out = tmp_path / "fresh"
        rc = main(
            [
                "reconstruct",
                "--in",
                str(interp_problem),
                "--truncation-radius",
                "8",
                "--grid=-1,1,-1,1,1",
                "--out",
                str(out),
            ]
        )
        assert rc == 2
        assert not out.exists()
        doc = error_doc(capsys, "beta", "alpha")
        assert doc["error"] == "DensityOrderViolated"
        assert (doc["beta"], doc["alpha"]) == (pytest.approx(0.8), ALPHA)

    def test_critical_problem_rejected(self, tmp_path, capsys, critical_problem):
        rc = main(
            [
                "reconstruct",
                "--in",
                str(critical_problem),
                "--truncation-radius",
                "6",
                "--grid=-1,1,-1,1,1",
                "--out",
                str(tmp_path / "x"),
            ]
        )
        assert rc == 2
        doc = error_doc(capsys, "beta", "alpha")
        assert doc["error"] == "DensityOrderViolated"
        assert (doc["beta"], doc["alpha"]) == (pytest.approx(1.0), ALPHA)


class TestInterpolate:
    def test_indicator_data_zero_residual(self, tmp_path, interp_problem):
        rc = main(
            [
                "interpolate",
                "--in",
                str(interp_problem),
                "--truncation-radius",
                "8",
                "--grid=-2,2,-2,2,1",
                "--out",
                str(tmp_path),
            ]
        )
        assert rc == 0
        report = read_report(tmp_path, "interpolate")
        results = report["results"]
        assert results["beta"] == pytest.approx(0.8)
        assert results["max_interior_residual"] <= 1e-12
        assert math.isfinite(results["pointwise_bound_constant"])
        rows = np.loadtxt(
            tmp_path / "interp_grid.csv", delimiter=",", skiprows=1, ndmin=2
        )
        assert rows.shape == (25, 5)
        assert np.all(np.isfinite(rows[:, 4]))

    def test_norm_growth_section_present(self, tmp_path, interp_problem):
        rc = main(
            [
                "interpolate",
                "--in",
                str(interp_problem),
                "--truncation-radius",
                "8",
                "--grid=0,1,0,1,1",
                "--degree",
                "4",
                "--out",
                str(tmp_path),
            ]
        )
        assert rc == 0
        growth = read_report(tmp_path, "interpolate")["results"]["norm_growth"]
        assert growth["degree"] == 4
        assert growth["ratio"] == pytest.approx(
            growth["interpolant_norm"] / growth["data_norm"]
        )

    @pytest.mark.parametrize("target", [1e300, 1e-320])
    def test_norms_of_extreme_targets_are_finite(self, tmp_path, capsys, target):
        # their squares overflow or underflow: the norms read Infinity or 0
        # (ratio null) before, with overflow warnings on stderr
        problem = write_problem(tmp_path / "p.json", SUB_SPACING, 12.0, lambda z: complex(target))
        argv = ["interpolate", "--in", str(problem), "--truncation-radius", "10",
                "--grid=0,1,0,1,1", "--degree", "4", "--out", str(tmp_path / "out")]
        assert main(argv) == 0
        assert capsys.readouterr().err == ""
        growth = read_report(tmp_path / "out", "interpolate")["results"]["norm_growth"]
        assert growth["data_norm"] == pytest.approx(9.0 * target, rel=1e-3, abs=0.0)
        assert 0.0 < growth["interpolant_norm"] < math.inf and 0.1 < growth["ratio"] < 0.2

    def test_supercritical_problem_rejected(self, tmp_path, capsys, recon_problem):
        rc = main(
            [
                "interpolate",
                "--in",
                str(recon_problem),
                "--truncation-radius",
                "8",
                "--grid=0,1,0,1,1",
                "--out",
                str(tmp_path / "x"),
            ]
        )
        assert rc == 2
        doc = error_doc(capsys, "beta", "alpha")
        assert doc["error"] == "DensityOrderViolated"
        assert (doc["beta"], doc["alpha"]) == (pytest.approx(1.5), ALPHA)

    def test_critical_problem_rejected(self, tmp_path, capsys, critical_problem):
        rc = main(
            [
                "interpolate",
                "--in",
                str(critical_problem),
                "--truncation-radius",
                "6",
                "--grid=0,1,0,1,1",
                "--out",
                str(tmp_path / "x"),
            ]
        )
        assert rc == 2
        doc = error_doc(capsys, "beta", "alpha")
        assert doc["error"] == "DensityOrderViolated"
        assert (doc["beta"], doc["alpha"]) == (pytest.approx(1.0), ALPHA)

    def test_far_grid_exits_3_without_files(self, tmp_path, capsys, interp_problem):
        out = tmp_path / "fresh"
        rc = main(
            [
                "interpolate",
                "--in",
                str(interp_problem),
                "--truncation-radius",
                "8",
                "--grid=50,50,0,0,1",
                "--out",
                str(out),
            ]
        )
        assert rc == 3
        assert not out.exists()
        # the plain value at 50 is about exp(alpha 50^2 / 2) times the
        # weighted one, past a double
        doc = error_doc(capsys, "log_mag", "radius")
        assert doc["error"] == "Overflow"
        assert doc["radius"] == 50.0
        assert doc["log_mag"] >= MAX_EXP
        assert doc["message"] == (
            f"interpolant log modulus {doc['log_mag']:.6g} at |z| = 50 "
            f"exceeds the safe exponent {MAX_EXP:g}"
        )


class TestSigmaGrid:
    def test_lattice_points_are_exact_zeros(self, tmp_path):
        rc = main(
            [
                "sigma-grid",
                "--spacing",
                "1",
                "--grid=-1,1,-1,1,0.5",
                "--out",
                str(tmp_path),
            ]
        )
        assert rc == 0
        report = read_report(tmp_path, "sigma-grid")
        eta1 = complex(*report["results"]["eta1"])
        assert abs(eta1 - math.pi) <= 1e-9
        lines = (tmp_path / "sigma_grid.csv").read_text().splitlines()
        assert lines[0] == "x,y,log_mag,phase"
        rows = [line.split(",") for line in lines[1:]]
        zeros = [r for r in rows if float(r[2]) == float("-inf")]
        on_lattice = [
            r
            for r in rows
            if float(r[0]) == int(float(r[0])) and float(r[1]) == int(float(r[1]))
        ]
        assert len(rows) == 25
        assert len(zeros) == len(on_lattice) == 9

    def test_overflowing_log_modulus_exits_2_without_files(self, tmp_path, capsys):
        out = tmp_path / "fresh"
        rc = main(["sigma-grid", "--spacing", "1", "--grid=1.5e154,1.5e154,0.5,0.5,1", "--out", str(out)])
        assert rc == 2
        assert not out.exists()
        doc = error_doc(capsys)
        assert doc["error"] == "ValidationError"
        assert "log_mag" in doc["message"]


class TestGrowthCheck:
    def test_perturbed_lattice_fits_with_no_violations(self, tmp_path):
        rc = main(
            [
                "growth-check",
                "--alpha",
                "1",
                "--density-ratio",
                "1",
                "--window",
                "16",
                "--perturb",
                "0.3",
                "--seed",
                "3",
                "--grid-radius",
                "7",
                "--grid-step",
                "0.5",
                "--out",
                str(tmp_path),
            ]
        )
        assert rc == 0
        results = read_report(tmp_path, "growth-check")["results"]
        assert "truncation_index" not in results
        assert results["violations"] == 0
        assert results["c"] >= 0.0
        assert results["C1"] > 0.0 and results["C2"] > 0.0

    def test_grid_on_the_zero_set_exits_2_without_files(self, tmp_path, capsys):
        out = tmp_path / "fresh"
        rc = main(
            [
                "growth-check",
                "--alpha",
                "3.14159",
                "--spacing",
                "1",
                "--window",
                "20",
                "--grid-radius",
                "0.1",
                "--grid-step",
                "0.15",
                "--out",
                str(out),
            ]
        )
        assert rc == 2
        assert not out.exists()
        assert error_doc(capsys)["error"] == "ValidationError"


class TestEntryPoint:
    def test_module_invocation_reports_version(self):
        proc = subprocess.run(
            [sys.executable, "-m", "fockspace", "--version"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.strip().endswith("0.1.0")

    def test_import_skips_numpy_polynomial(self):
        # only norm_decomposition_check needs leggauss, and no subcommand calls it
        src = Path(__file__).resolve().parent.parent / "src"
        proc = subprocess.run(
            [sys.executable, "-c", "import sys, fockspace.cli; print('numpy.polynomial' in sys.modules)"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "False\n"

    def test_runs_without_scipy_or_lazy_imports(self, tmp_path, recon_problem, interp_problem):
        # A fresh interpreter, so modules the test session imported do not
        # count. No subcommand may load scipy, or the numpy submodules and
        # stdlib modules it would otherwise import lazily on first use
        # (np.unique, for one, imports numpy.ma).
        lat = tmp_path / "lat"
        script = f"""
import sys
import fockspace.cli as cli
before = set(sys.modules)
for argv in (
    ["lattice", "--density-ratio", "1.2", "--window", "8", "--perturb", "0.2",
     "--seed", "3", "--format", "csv", "--out", {str(lat)!r}],
    ["density", "--in", {str(lat / "points.csv")!r}, "--window", "8",
     "--radii", "2:4:1", "--out", {str(tmp_path / "density")!r}],
    ["reconstruct", "--in", {str(recon_problem)!r}, "--truncation-radius", "6",
     "--grid=-1,1,-1,1,0.5", "--out", {str(tmp_path / "rec")!r}],
    ["interpolate", "--in", {str(interp_problem)!r}, "--truncation-radius", "6",
     "--grid=-1,1,-1,1,0.5", "--degree", "3", "--out", {str(tmp_path / "interp")!r}],
    ["sigma-grid", "--spacing", "1", "--grid=-1,1,-1,1,0.25", "--out", {str(tmp_path / "sigma")!r}],
    ["growth-check", "--alpha", "3.14159", "--spacing", "1", "--window", "8",
     "--perturb", "0.2", "--seed", "3", "--grid-radius", "4", "--grid-step", "0.25",
     "--out", {str(tmp_path / "growth")!r}],
    ["frame", "--alpha", "1", "--density-ratio", "1.2", "--window", "8",
     "--degree-ladder", "8,16", "--out", {str(tmp_path / "frame")!r}],
):
    assert cli.main(argv) == 0, argv
lazy = {{"numpy.random", "numpy.fft", "numpy.polynomial", "numpy.ma", "locale"}}
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
print(sorted(lazy & (set(sys.modules) - before)))
"""
        src = Path(__file__).resolve().parent.parent / "src"
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split("\n")[-3:] == ["[]", "[]", ""]

    def test_benchmark_wrappers_resolve(self, tmp_path, interp_problem):
        # perfbench/spans.py wraps layer entry points, evaluator methods
        # and the cli module's io names by attribute; a renamed one breaks
        # every traced benchmark run. A fresh interpreter keeps the
        # wrappers out of this session.
        root = Path(__file__).resolve().parent.parent
        script = f"""
import sys
sys.path.insert(0, {str(root / "perfbench")!r})
import spans
import fockspace.cli as cli
tracer = spans.install(cli)
argv = ["interpolate", "--in", {str(interp_problem)!r}, "--truncation-radius", "6",
        "--grid=0,1,0,1,1", "--degree", "3", "--out", {str(tmp_path)!r}]
assert cli.main(argv) == 0
totals = tracer.totals()
print(sorted(n for n in ("cli", "io", "interpolation.norm_growth") if n in totals))
"""
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(root / "src")},
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split("\n")[-2] == "['cli', 'interpolation.norm_growth', 'io']"
