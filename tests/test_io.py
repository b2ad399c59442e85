"""Round-trip and formatting checks for the file formats."""

import json
import math
from itertools import chain

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fockspace import io
from fockspace.errors import ValidationError
from fockspace.io import (
    density_table_csv,
    dumps_json,
    eval_grid_csv,
    frame_estimate_to_doc,
    frame_table_csv,
    point_set_csv,
    point_set_from_csv,
    point_set_from_doc,
    point_set_to_doc,
    problem_doc,
    problem_from_doc,
    sigma_grid_csv,
)
from fockspace.pointsets import density_estimate, perturb, square_lattice
from fockspace.sampling import frame_bounds


class TestDumpsJson:
    def test_doubles_round_trip_exactly(self):
        rng = np.random.default_rng(0)
        values = list(rng.standard_normal(50) * 10.0 ** rng.integers(-8, 8, 50))
        text = dumps_json({"values": values})
        back = json.loads(text)["values"]
        assert all(a == b for a, b in zip(back, values))

    def test_special_floats_use_json_literals(self):
        text = dumps_json([math.nan, math.inf, -math.inf])
        assert text == "[NaN, Infinity, -Infinity]"
        back = json.loads(text)
        assert math.isnan(back[0]) and back[1] == math.inf and back[2] == -math.inf

    def test_nested_document_is_valid_json(self):
        doc = {
            "a": [1, 2, 3],
            "b": {"c": None, "d": True, "e": "text"},
            "f": list(range(40)),
        }
        assert json.loads(dumps_json(doc)) == doc

    def test_numpy_scalars_serialize(self):
        doc = {"i": np.int64(3), "x": np.float64(0.5), "b": np.bool_(True)}
        assert json.loads(dumps_json(doc)) == {"i": 3, "x": 0.5, "b": True}

    def test_deterministic_output(self):
        doc = {"x": 1 / 3, "y": [2 / 7, 3 / 11]}
        assert dumps_json(doc) == dumps_json(doc)

    def test_unknown_type_rejected(self):
        with pytest.raises(ValidationError):
            dumps_json({"z": 1 + 2j})


class TestPointSetFormats:
    def test_doc_round_trip_with_indices(self):
        gamma = perturb(square_lattice(1.0, 3.0), 0.2, seed=4)
        back = point_set_from_doc(json.loads(dumps_json(point_set_to_doc(gamma))))
        assert back.window_radius == gamma.window_radius
        assert np.array_equal(back.points, gamma.points)
        assert np.array_equal(back.indices, gamma.indices)

    def test_doc_round_trip_without_indices(self):
        gamma = square_lattice(1.0, 2.0)
        doc = point_set_to_doc(gamma)
        doc.pop("indices")
        back = point_set_from_doc(doc)
        assert back.indices is None
        assert np.array_equal(back.points, gamma.points)

    def test_csv_round_trip_is_bit_exact(self):
        gamma = perturb(square_lattice(0.9, 4.0), 0.17, seed=9)
        back = point_set_from_csv(point_set_csv(gamma), gamma.window_radius)
        assert np.array_equal(back.points, gamma.points)
        assert np.array_equal(back.indices, gamma.indices)

    def test_csv_without_indices(self):
        gamma = square_lattice(1.0, 2.0)
        text = point_set_csv(
            type(gamma)(gamma.points, gamma.window_radius, indices=None)
        )
        assert text.splitlines()[0] == "x,y"
        back = point_set_from_csv(text, 2.0)
        assert back.indices is None
        assert len(back) == len(gamma)

    def test_empty_csv_rejected(self):
        with pytest.raises(ValidationError):
            point_set_from_csv("", 1.0)

    def test_wrong_header_rejected(self):
        with pytest.raises(ValidationError):
            point_set_from_csv("a,b\n1,2\n", 1.0)

    @pytest.mark.parametrize(
        "text",
        [
            "x,y\n0,0\nabc,1\n",
            "x,y\n0,0\n1\n",
            "x,y,m,n\n0,0,0,0\n1,0,one,0\n",
            "x,y,m,n\n0,0,0,0\n1,0,1\n",
        ],
    )
    def test_malformed_csv_row_rejected(self, text):
        with pytest.raises(ValidationError):
            point_set_from_csv(text, 3.0)

    @pytest.mark.parametrize(
        "doc",
        [
            {"window_radius": "abc", "points": [[0.0, 0.0]]},
            {"window_radius": None, "points": [[0.0, 0.0]]},
            {"window_radius": 1.0, "points": [[0.0, 0.0]], "indices": [["a", 0]]},
            {"window_radius": 1.0, "points": [[0.0, 0.0]], "indices": [[1.5, 0]]},
        ],
    )
    def test_malformed_doc_numbers_rejected(self, doc):
        with pytest.raises(ValidationError):
            point_set_from_doc(doc)


class TestProblemDocs:
    def test_round_trip(self):
        nodes = [0.0j, 1.0 + 0.5j, -2.0j]
        data = [1.0 + 0.0j, 0.25j, -0.5 + 0.0j]
        doc = json.loads(dumps_json(problem_doc(1.5, 0.8, nodes, data)))
        alpha, spacing, back_nodes, back_data = problem_from_doc(doc)
        assert alpha == 1.5 and spacing == 0.8
        assert np.array_equal(back_nodes, np.asarray(nodes))
        assert np.array_equal(back_data, np.asarray(data))

    def test_length_mismatch_rejected(self):
        doc = problem_doc(1.0, 1.0, [0.0j, 1.0j], [1.0 + 0.0j])
        with pytest.raises(ValidationError):
            problem_from_doc(doc)

    def test_duplicate_nodes_rejected(self):
        doc = problem_doc(1.0, 1.0, [1.0j, 1.0j], [1.0 + 0.0j, 2.0 + 0.0j])
        with pytest.raises(ValidationError):
            problem_from_doc(doc)

    @pytest.mark.parametrize(
        "key, value",
        [
            ("alpha", "abc"),
            ("alpha", [1.0]),
            ("lattice_spacing", None),
            ("lattice_spacing", -1.0),
            ("lattice_spacing", math.nan),
        ],
    )
    def test_bad_numbers_rejected(self, key, value):
        doc = problem_doc(1.0, 1.0, [0.0j, 1.0j], [1.0 + 0.0j, 2.0 + 0.0j])
        doc[key] = value
        with pytest.raises(ValidationError):
            problem_from_doc(doc)

    @pytest.mark.parametrize("key", ["alpha", "lattice_spacing", "nodes", "data"])
    def test_missing_field_rejected(self, key):
        doc = problem_doc(1.0, 1.0, [0.0j, 1.0j], [1.0 + 0.0j, 2.0 + 0.0j])
        del doc[key]
        with pytest.raises(ValidationError, match=f"problem document is missing the '{key}' field"):
            problem_from_doc(doc)


# cells whose spelling a one-format CSV writer must keep: the non-finite
# ones, a signed zero, the smallest subnormal and the largest double
EDGE_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1.7976931348623157e308, 0.1, -1e16, 2.5e-300]
# grid coordinates and values: a few repeated spellings, edge cells, any double
GRID_FLOATS = st.one_of(st.sampled_from([0.0, -0.0, 0.5, -1.25] + EDGE_FLOATS), st.floats(allow_nan=True))


def per_cell_csv(header, rows):
    """CSV text with every cell through ``_fmt`` and ints as such."""
    lines = [header] + [",".join(str(c) if isinstance(c, int) else io._fmt(c) for c in row) for row in rows]
    return "\n".join(lines) + "\n"


def every_cell_csv(header: str, *columns) -> str:
    """The grid writers' CSV as it was before each distinct coordinate was
    formatted once: every cell through one ``%.17g`` format."""
    cells = tuple(chain.from_iterable(zip(*columns)))
    body = (",".join(["%.17g"] * len(columns)) + "\n") * (len(cells) // len(columns)) % cells
    return header + "\n" + body.replace("nan", "NaN").replace("inf", "Infinity")


def every_cell_eval_grid_csv(zs, values, alpha):
    zs, values = np.asarray(zs).ravel(), np.asarray(values).ravel()
    wmag = np.exp(-0.5 * float(alpha) * np.abs(zs) ** 2) * np.abs(values)
    cols = (zs.real, zs.imag, values.real, values.imag, wmag)
    return every_cell_csv("x,y,re,im,weighted_mag", *(c.tolist() for c in cols))


def every_cell_sigma_grid_csv(zs, logs):
    zs, logs = np.asarray(zs).ravel(), np.asarray(logs).ravel()
    phase = np.where(logs.real == -np.inf, 0.0, io.reduce_phase(logs.imag))
    return every_cell_csv("x,y,log_mag,phase", *(c.tolist() for c in (zs.real, zs.imag, logs.real, phase)))


def complexes(re, im):
    """Complex array with exactly these parts (``re + 1j*im`` turns an
    infinite part into a nan in the other)."""
    out = np.empty(np.broadcast(re, im).shape, dtype=complex)
    out.real, out.imag = re, im
    return out


def assert_grid_writers_agree(zs, values):
    """Both grid writers equal the per-cell spelling and the every-cell writer."""
    with np.errstate(all="ignore"):  # |z|^2 of the largest double overflows
        got = eval_grid_csv(zs, values, 0.5)
        assert got == every_cell_eval_grid_csv(zs, values, 0.5)
        wmag = np.exp(-0.25 * np.abs(zs) ** 2) * np.abs(values)
        rows = zip(zs.real.tolist(), zs.imag.tolist(), values.real.tolist(), values.imag.tolist(), wmag.tolist())
        assert got == per_cell_csv("x,y,re,im,weighted_mag", rows)
        got = sigma_grid_csv(zs, values)
        assert got == every_cell_sigma_grid_csv(zs, values)
        phase = np.where(values.real == -np.inf, 0.0, io.reduce_phase(values.imag))
        rows = zip(zs.real.tolist(), zs.imag.tolist(), values.real.tolist(), phase.tolist())
        assert got == per_cell_csv("x,y,log_mag,phase", rows)


class TestCsvTables:
    def test_one_format_equals_per_cell_fmt(self):
        xs = [a for a in EDGE_FLOATS for _ in EDGE_FLOATS]
        ys = [b for _ in EDGE_FLOATS for b in EDGE_FLOATS]
        ks = list(range(-40, -40 + len(xs)))
        assert io._csv("x,k,y", xs, ks, ys) == per_cell_csv("x,k,y", zip(xs, ks, ys))
        assert io._csv("x,y", [], []) == "x,y\n"

    def test_int_columns_keep_their_spelling(self):
        gamma = perturb(square_lattice(0.7, 3.0), 0.1, seed=2)
        rows = zip(gamma.points.real.tolist(), gamma.points.imag.tolist(), *gamma.indices.T.tolist())
        assert point_set_csv(gamma) == per_cell_csv("x,y,m,n", rows)
        table = [(8, math.nan, math.inf), (16, -0.0, 5e-324), (1024, 1.7976931348623157e308, -math.inf)]
        assert frame_table_csv(table) == per_cell_csv("N,A_N,B_N", table)

    def test_density_table_equals_per_cell_fmt(self):
        # no side-7 square fits the window: that radius is unreliable, its counts 0
        gamma = perturb(square_lattice(1.0, 4.0), 0.2, seed=2)
        report = density_estimate(gamma, [0.1, 1.0 / 3.0, 2.5, 7.0])
        assert report.reliable == (True, True, True, False)
        rows = [(r, lo, hi, int(ok)) for r, lo, hi, ok in
                zip(report.radii, report.n_minus, report.n_plus, report.reliable)]
        assert density_table_csv(report) == per_cell_csv("radius,n_minus,n_plus,reliable", rows)
        assert density_table_csv(report).splitlines()[-1] == "7,0,0,0"

    def test_eval_grid_weighted_magnitude(self):
        zs = np.array([0.0j, 1.0 + 1.0j])
        values = np.array([2.0 + 0.0j, 3.0j])
        lines = eval_grid_csv(zs, values, 0.5).splitlines()
        assert lines[0] == "x,y,re,im,weighted_mag"
        first = [float(p) for p in lines[1].split(",")]
        second = [float(p) for p in lines[2].split(",")]
        assert first == [0.0, 0.0, 2.0, 0.0, 2.0]
        assert second[4] == pytest.approx(3.0 * math.exp(-0.5 * 0.5 * 2.0))

    def test_sigma_grid_exact_zero_literal(self):
        zs = [0.0j, 1.0 + 0.0j]
        logs = np.array([complex(-math.inf, 2.0), complex(0.5, 3.0 * math.pi)])
        lines = sigma_grid_csv(zs, logs).splitlines()
        assert lines[1] == "0,0,-Infinity,0"
        assert float(lines[1].split(",")[2]) == -math.inf
        assert [float(p) for p in lines[2].split(",")] == [1.0, 0.0, 0.5, math.pi]

    def test_grid_coordinates_formatted_once_keep_their_spelling(self):
        # every coordinate repeats along the grid, 0.0 next to -0.0
        axis = np.array(EDGE_FLOATS + [0.0, 0.1, -0.0])
        zs = complexes(axis[None, :], axis[:, None]).ravel()
        rng = np.random.default_rng(3)
        values = complexes(rng.choice(axis, zs.size), rng.normal(size=zs.size))
        assert_grid_writers_agree(zs, values)
        # and points whose x coordinates are all distinct
        assert_grid_writers_agree(complexes(rng.normal(size=40), axis.repeat(4)[:40]), values[:40])

    @settings(max_examples=60, deadline=None)
    @given(
        xs=st.lists(GRID_FLOATS, min_size=1, max_size=5),
        ys=st.lists(GRID_FLOATS, min_size=1, max_size=5),
        data=st.data(),
    )
    def test_grid_writers_equal_every_cell_writer(self, xs, ys, data):
        zs = complexes(np.array(xs)[None, :], np.array(ys)[:, None]).ravel()
        parts = st.lists(GRID_FLOATS, min_size=zs.size, max_size=zs.size)
        values = complexes(np.array(data.draw(parts)), np.array(data.draw(parts)))
        assert_grid_writers_agree(zs, values)

    @pytest.mark.parametrize("count", [2, 4, 1], ids=["fewer", "more", "one"])
    def test_grid_writers_need_one_value_per_point(self, count):
        zs = np.array([0, 1, 2 + 1j])
        values = np.ones(count, dtype=complex)
        with pytest.raises(ValidationError, match=f"^3 grid points but {count} values$"):
            eval_grid_csv(zs, values, 1.0)
        with pytest.raises(ValidationError, match=f"^3 grid points but {count} logs$"):
            sigma_grid_csv(zs, values)

    def test_empty_grid_is_the_header(self):
        empty = np.array([], dtype=complex)
        assert eval_grid_csv(empty, empty, 1.0) == "x,y,re,im,weighted_mag\n"
        assert sigma_grid_csv(empty, empty) == "x,y,log_mag,phase\n"

    def test_frame_table_layout(self):
        text = frame_table_csv([(8, 0.5, 1.5), (16, 0.25, 1.75)])
        lines = text.splitlines()
        assert lines[0] == "N,A_N,B_N"
        assert lines[1] == "8,0.5,1.5"
        assert len(lines) == 3

    def test_frame_estimate_doc_table(self):
        gamma = square_lattice(1.2, 8.0)
        est = frame_bounds(gamma, 1.0, 8)
        doc = frame_estimate_to_doc(est)
        assert json.loads(dumps_json(doc))["degree"] == 8
        assert all(set(row) == {"degree", "A", "B"} for row in doc["convergence_table"])
        assert doc["convergence_table"][-1]["A"] == est.A
