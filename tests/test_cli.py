"""End-to-end checks of the command-line interface."""

import json
import math
import subprocess
import sys

import numpy as np
import pytest

from fockspace import square_lattice
from fockspace.cli import main
from fockspace.io import dumps_json, problem_doc

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


def error_doc(capsys):
    err = capsys.readouterr().err.strip()
    assert "\n" not in err
    doc = json.loads(err)
    assert set(doc) == {"error", "message"}
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
        assert error_doc(capsys)["error"] == "DensityOrderViolated"

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
        assert error_doc(capsys)["error"] == "DensityOrderViolated"


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
        assert error_doc(capsys)["error"] == "DensityOrderViolated"

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
        assert error_doc(capsys)["error"] == "DensityOrderViolated"

    def test_far_grid_exits_3_without_files(self, tmp_path, capsys, interp_problem):
        out = tmp_path / "fresh"
        rc = main(
            [
                "interpolate",
                "--in",
                str(interp_problem),
                "--truncation-radius",
                "8",
                "--grid=100,100,0,0,1",
                "--out",
                str(out),
            ]
        )
        assert rc == 3
        assert not out.exists()
        assert error_doc(capsys)["error"] == "TruncationTooSmall"


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
