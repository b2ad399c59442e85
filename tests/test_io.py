"""Round-trip and formatting checks for the file formats."""

import json
import math

import numpy as np
import pytest

from fockspace.errors import ValidationError
from fockspace.io import (
    dumps_json,
    eval_grid_csv,
    fock_function_from_doc,
    fock_function_to_doc,
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
from fockspace.pointsets import perturb, square_lattice
from fockspace.sampling import frame_bounds
from fockspace.space import FockFunction, LogComplex


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


class TestFockFunctionDocs:
    def test_monomial_round_trip(self):
        f = FockFunction.monomial(2.0, [1.0, 0.5j, -0.25])
        g = fock_function_from_doc(json.loads(dumps_json(fock_function_to_doc(f))))
        assert g.alpha == f.alpha
        assert g.kind == "monomial"
        assert np.array_equal(g.coeffs, f.coeffs)

    def test_kernel_round_trip(self):
        f = FockFunction.kernel_combo(1.0, [0.0, 1.0 + 1.0j], [2.0, -1.0j])
        g = fock_function_from_doc(json.loads(dumps_json(fock_function_to_doc(f))))
        assert g.kind == "kernel"
        assert np.array_equal(g.nodes, f.nodes)
        assert np.array_equal(g.weights, f.weights)

    def test_unknown_repr_rejected(self):
        with pytest.raises(ValidationError):
            fock_function_from_doc({"alpha": 1.0, "repr": "wavelet"})

    def test_non_numeric_alpha_rejected(self):
        with pytest.raises(ValidationError):
            fock_function_from_doc(
                {"alpha": "abc", "repr": "monomial", "coeffs": [[1.0, 0.0]]}
            )

    def test_missing_field_rejected(self):
        with pytest.raises(ValidationError):
            fock_function_from_doc({"repr": "monomial", "coeffs": [[1.0, 0.0]]})


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


class TestCsvTables:
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
        zs = [0.0j]
        logs = [LogComplex(-math.inf, 0.0)]
        lines = sigma_grid_csv(zs, logs).splitlines()
        assert lines[1] == "0,0,-Infinity,0"
        assert float(lines[1].split(",")[2]) == -math.inf

    def test_frame_table_layout(self):
        text = frame_table_csv([(8, 0.5, 1.5), (16, 0.25, 1.75)])
        lines = text.splitlines()
        assert lines[0] == "N,A_N,B_N"
        assert lines[1] == "8,0.5,1.5"
        assert len(lines) == 3

    def test_frame_estimate_doc_table(self):
        gamma = square_lattice(1.2, 8.0)
        est = frame_bounds(gamma, 1.0, 8, 8.0)
        doc = frame_estimate_to_doc(est)
        assert json.loads(dumps_json(doc))["degree"] == 8
        assert all(set(row) == {"degree", "A", "B"} for row in doc["convergence_table"])
        assert doc["convergence_table"][-1]["A"] == est.A
