"""Tests for the core space module: kernels, norms, translations."""

import cmath
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fockspace import errors, space
from fockspace.space import FockFunction, LogComplex


def combo(alpha, nodes, weights):
    return FockFunction.kernel_combo(alpha, nodes, weights)


def basis(alpha, n):
    c = np.zeros(n + 1, dtype=complex)
    c[n] = 1.0
    return FockFunction.monomial(alpha, c)


class TestLogComplex:
    def test_phase_reduction(self):
        assert LogComplex(0.0, -math.pi).phase == pytest.approx(math.pi)
        assert LogComplex(0.0, 3 * math.pi).phase == pytest.approx(math.pi)
        assert LogComplex(0.0, 0.3).phase == pytest.approx(0.3)
        assert LogComplex(0.0, 2 * math.pi + 0.3).phase == pytest.approx(0.3)

    def test_zero_encoding(self):
        z = LogComplex.from_complex(0.0)
        assert z.log_mag == -math.inf
        assert z.phase == 0.0
        assert z.to_complex() == 0j

    def test_round_trip(self):
        w = 2.5 * cmath.exp(1j * 0.7)
        back = LogComplex.from_complex(w).to_complex()
        assert abs(back - w) <= 1e-15 * abs(w)

    def test_overflow_guard(self):
        with pytest.raises(errors.Overflow):
            LogComplex(800.0, 0.0).to_complex()

    def test_multiply(self):
        a = LogComplex.from_complex(1 + 1j)
        b = LogComplex.from_complex(2 - 0.5j)
        prod = (a * b).to_complex()
        assert abs(prod - (1 + 1j) * (2 - 0.5j)) <= 1e-14

    def test_rejects_nan(self):
        with pytest.raises(errors.ValidationError):
            LogComplex(math.nan, 0.0)


class TestKernel:
    def test_zero_argument(self):
        for z in [0.0, 1.0, 2 + 3j, -5j]:
            assert space.kernel(1.0, z, 0.0) == 1.0

    def test_unit_value(self):
        assert space.kernel(1.0, 1.0, 1.0) == pytest.approx(math.e, rel=1e-15)

    def test_imaginary_nodes(self):
        # exp(pi * conj(i) * i) = exp(pi)
        val = space.kernel(math.pi, 1j, 1j)
        assert val == pytest.approx(math.exp(math.pi), rel=1e-14)

    def test_overflow_raises(self):
        with pytest.raises(errors.Overflow):
            space.kernel(1.0, 30.0, 30.0)
        lg = space.kernel_log(1.0, 30.0, 30.0)
        assert lg.log_mag == pytest.approx(900.0)

    def test_hermitian_symmetry(self):
        a, z, w = 0.7, 1.2 - 0.3j, -0.4 + 2j
        assert space.kernel(a, z, w) == pytest.approx(
            space.kernel(a, w, z).conjugate(), rel=1e-14
        )


class TestEval:
    def test_constant_at_origin(self):
        f = FockFunction.monomial(1.0, [1.0])
        assert space.eval_weighted(f, 0.0) == 1.0

    def test_kernel_at_own_node(self):
        # weighted K(., zeta) at zeta is exp(alpha |zeta|^2 / 2)
        f = combo(1.0, [2.0], [1.0])
        assert space.eval_weighted(f, 2.0) == pytest.approx(math.exp(2.0), rel=1e-13)

    def test_no_underflow_in_intermediates(self):
        f = FockFunction.monomial(1.0, [0.0, 1.0])
        got = space.eval_weighted(f, 10.0)
        assert got == pytest.approx(10.0 * math.exp(-50.0), rel=1e-12)

    def test_weighted_finite_at_extreme_inputs(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            deg = int(rng.integers(1, 61))
            alpha = float(rng.uniform(0.2, 4.0))
            c = rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1)
            f = FockFunction.monomial(alpha, c)
            z = complex(rng.uniform(-50, 50), rng.uniform(-50, 50))
            w = space.eval_weighted(f, z)
            assert np.isfinite(w.real) and np.isfinite(w.imag)

    def test_weighted_matches_direct_small_scale(self):
        rng = np.random.default_rng(3)
        c = rng.normal(size=7) + 1j * rng.normal(size=7)
        f = FockFunction.monomial(1.3, c)
        for _ in range(25):
            z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            direct = space._eval_monomial_direct(f, np.array([z]))[0]
            want = direct * math.exp(-1.3 * abs(z) ** 2 / 2)
            assert space.eval_weighted(f, z) == pytest.approx(want, rel=1e-12, abs=1e-15)

    def test_plain_eval_overflow(self):
        # f(20) = exp(800) overflows plainly; the weighted value exp(600)
        # is still representable and must not raise.
        f = combo(1.0, [40.0], [1.0])
        with pytest.raises(errors.Overflow):
            space.eval(f, 20.0 + 0j)
        assert space.eval_weighted(f, 20.0 + 0j) == pytest.approx(
            math.exp(600.0), rel=1e-12
        )

    def test_kernel_combo_weighted_log(self):
        # far node: weighted value huge but representable in log form
        f = combo(1.0, [30.0], [1.0])
        lg = space.eval_weighted_log(f, 30.0)
        assert lg.log_mag == pytest.approx(450.0)


class TestNorm2:
    def test_orthonormal_basis_vector(self):
        assert space.norm2(basis(1.0, 2)) == 1.0

    def test_single_kernel(self):
        zeta = 1.5 + 0.5j
        alpha = 0.9
        f = combo(alpha, [zeta], [1.0])
        want = math.exp(alpha * abs(zeta) ** 2 / 2)
        assert space.norm2(f) == pytest.approx(want, rel=1e-13)

    def test_pythagoras(self):
        f = FockFunction.monomial(2.0, [3.0, 4.0j])
        assert space.norm2(f) == 5.0

    def test_kernel_norm_identity(self):
        # ||K(., zeta)||^2 == K(zeta, zeta)
        for zeta in [0.3, 1 + 1j, -2.5j, 2.9, 1.7 - 2.1j]:
            f = combo(1.1, [zeta], [1.0])
            got = space.norm2(f) ** 2
            want = space.kernel(1.1, zeta, zeta).real
            assert abs(got - want) <= 1e-12 * want

    def test_matches_gram_brute_force(self):
        rng = np.random.default_rng(5)
        zs = rng.normal(size=6) + 1j * rng.normal(size=6)
        ws = rng.normal(size=6) + 1j * rng.normal(size=6)
        f = combo(1.0, zs, ws)
        gram = np.exp(np.conj(zs)[:, None] * zs[None, :])
        want = math.sqrt(np.real(ws @ gram @ np.conj(ws)))
        assert space.norm2(f) == pytest.approx(want, rel=1e-12)


    def test_zero_weight_node_drops_out(self):
        nodes = [0.4 + 0.1j, -1.3 + 0.7j, 0.8 - 1.2j]
        weights = [1.0 - 0.5j, 0.0, 0.3j]
        f = combo(1.0, nodes, weights)
        g = combo(1.0, [nodes[0], nodes[2]], [weights[0], weights[2]])
        h = combo(1.0, [2.0 + 0.5j, -0.3j], [0.7, 1.0 + 1.0j])
        assert space.norm2(f) == pytest.approx(space.norm2(g), rel=1e-15)
        assert space.inner(f, h) == pytest.approx(space.inner(g, h), rel=1e-15)
        assert space.inner(h, f) == pytest.approx(space.inner(h, g), rel=1e-15)


@st.composite
def term_columns(draw):
    """(rows, columns) complex logs: spread, cancelling, zero and empty columns.

    Each column sits at its own scale anywhere in [-700, 700]. A
    cancelling column pairs every term with a near-negative partner of
    equal or nearly equal modulus.
    """
    n = draw(st.integers(1, 8))
    cols = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["spread", "cancel", "zeros", "empty"]))
        if kind == "empty":
            cols.append([complex(-math.inf, 0.0)] * n)
            continue
        center = draw(st.floats(-700.0, 700.0))
        offsets = st.floats(-40.0, 0.0)
        phases = st.floats(-math.pi, math.pi)
        col = [complex(center + draw(offsets), draw(phases)) for _ in range(n)]
        if kind == "cancel":
            for k in range(n // 2):
                nudge = draw(st.sampled_from([0.0, 1e-12, -3e-9, 1e-6]))
                col[n - 1 - k] = complex(col[k].real + nudge, col[k].imag + math.pi)
        elif kind == "zeros":
            for k in draw(st.sets(st.integers(0, n - 1), max_size=n - 1)):
                col[k] = complex(-math.inf, 0.0)
        cols.append(col)
    return np.array(cols, dtype=np.complex128).T


class TestCombineTermLogs:
    @given(term_columns())
    def test_matches_mpmath_sum(self, logs):
        # the absolute error stays within 4 n eps of the largest term,
        # plus the last-place rounding of the log the sum is stored in
        # (about 1e-13 relative at |log| = 700, which no summation avoids)
        eps = np.finfo(float).eps
        n = logs.shape[0]
        got = space._combine_term_logs(logs)
        mpmath.mp.dps = 30
        for col, out in zip(logs.T, got):
            finite = [t for t in col if t.real != -math.inf]
            if not finite:
                assert out.real == -math.inf
                continue
            top = max(t.real for t in finite)
            exact = mpmath.fsum(mpmath.exp(mpmath.mpc(t.real, t.imag) - top) for t in finite)
            if out.real == -math.inf:
                err, last_place = abs(exact), 0.0
            else:
                err = abs(mpmath.exp(mpmath.mpc(out.real, out.imag) - top) - exact)
                last_place = math.ulp(out.real)
            assert err <= 4 * n * eps + abs(exact) * last_place


class TestNormInf:
    def test_constant(self):
        f = FockFunction.monomial(1.0, [1.0])
        assert space.norm_inf(f, 5.0, 0.05) == pytest.approx(1.0, abs=1e-12)

    def test_degree_one(self):
        # max of |z| exp(-|z|^2/2) is exp(-1/2) near |z| = 1
        f = FockFunction.monomial(1.0, [0.0, 1.0])
        got = space.norm_inf(f, 5.0, 0.05)
        assert got == pytest.approx(math.exp(-0.5), abs=2e-4)
        assert got <= math.exp(-0.5) + 1e-12

    def test_kernel_at_origin(self):
        f = combo(1.0, [0.0], [1.0])
        assert space.norm_inf(f, 5.0, 0.05) == pytest.approx(1.0, abs=1e-12)

    def test_monotone_in_step(self):
        f = FockFunction.monomial(1.0, np.array([0.3, -0.1, 0.8, 0.2j]))
        coarse = space.norm_inf(f, 6.0, 0.2)
        fine = space.norm_inf(f, 6.0, 0.05)
        assert fine >= coarse - 1e-15

    def test_radius_guard(self):
        f = basis(1.0, 36)  # concentration radius 6 + 4
        with pytest.raises(errors.RadiusTooSmall):
            space.norm_inf(f, 5.0, 0.1)


class TestTranslate:
    def test_identity(self):
        f = combo(1.0, [1.0, 2.0], [1.0, -0.5j])
        assert space.translate(f, 0.0) is f

    def test_single_node_closed_form(self):
        alpha = 1.0
        a = 1.5 - 0.5j
        f = combo(alpha, [0.0], [1.0])
        g = space.translate(f, a)
        assert g.nodes[0] == a
        assert g.weights[0] == pytest.approx(
            cmath.exp(-alpha * abs(a) ** 2 / 2), rel=1e-14
        )
        assert space.norm2(g) == pytest.approx(1.0, rel=1e-13)

    def test_isometry_random(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            k = int(rng.integers(1, 6))
            zs = rng.normal(size=k) + 1j * rng.normal(size=k)
            ws = rng.normal(size=k) + 1j * rng.normal(size=k)
            f = combo(1.0, zs, ws)
            a = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
            n0, n1 = space.norm2(f), space.norm2(space.translate(f, a))
            assert abs(n1 - n0) <= 1e-10 * n0

    def test_round_trip_weighted_samples(self):
        rng = np.random.default_rng(9)
        zs = rng.normal(size=4) + 1j * rng.normal(size=4)
        ws = rng.normal(size=4) + 1j * rng.normal(size=4)
        f = combo(1.0, zs, ws)
        a = 0.8 - 1.1j
        g = space.translate(space.translate(f, a), -a)
        for z in [0.0, 1.0, -0.5 + 0.25j, 1j]:
            u, v = space.eval_weighted(f, z), space.eval_weighted(g, z)
            assert abs(abs(u) - abs(v)) <= 1e-10 * (1 + abs(u))

    def test_monomial_rejected(self):
        with pytest.raises(errors.UnsupportedRepresentation):
            space.translate(FockFunction.monomial(1.0, [1.0]), 1.0)


class TestInner:
    def test_orthonormality(self):
        N = 8
        fs = [basis(1.0, n) for n in range(N + 1)]
        gram = np.array([[space.inner(a, b) for b in fs] for a in fs])
        assert np.max(np.abs(gram - np.eye(N + 1))) == 0.0

    def test_reproducing_property(self):
        rng = np.random.default_rng(13)
        c = rng.normal(size=13) + 1j * rng.normal(size=13)
        f = FockFunction.monomial(1.0, c)
        for _ in range(100):
            z = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
            k = combo(1.0, [z], [1.0])
            got = space.inner(f, k)
            want = space._eval_monomial_direct(f, np.array([z]))[0]
            assert abs(got - want) <= 1e-10 * (1 + abs(want))

    def test_reproducing_example(self):
        f = FockFunction.monomial(1.0, [1.0, 2.0])
        k = combo(1.0, [0.5], [1.0])
        assert space.inner(f, k) == pytest.approx(2.0, rel=1e-14)

    def test_inner_equals_norm_squared(self):
        rng = np.random.default_rng(17)
        zs = rng.normal(size=5) + 1j * rng.normal(size=5)
        ws = rng.normal(size=5) + 1j * rng.normal(size=5)
        f = combo(1.0, zs, ws)
        got = space.inner(f, f)
        assert abs(got.imag) <= 1e-12 * got.real
        assert got.real == pytest.approx(space.norm2(f) ** 2, rel=1e-12)

    def test_conjugate_symmetry(self):
        f = FockFunction.monomial(1.0, [1.0, 0.5j, -0.25])
        g = combo(1.0, [0.4 - 0.2j], [1.5])
        assert space.inner(f, g) == pytest.approx(space.inner(g, f).conjugate(), rel=1e-12)

    def test_alpha_mismatch(self):
        with pytest.raises(errors.AlphaMismatch):
            space.inner(basis(1.0, 0), basis(2.0, 0))


class TestValidation:
    def test_duplicate_nodes_rejected(self):
        with pytest.raises(errors.ValidationError):
            combo(1.0, [1.0, 1.0], [1.0, 2.0])

    def test_bad_alpha(self):
        with pytest.raises(errors.ValidationError):
            FockFunction.monomial(-1.0, [1.0])
        with pytest.raises(errors.ValidationError):
            FockFunction.monomial(math.nan, [1.0])

    def test_immutability(self):
        f = FockFunction.monomial(1.0, [1.0])
        with pytest.raises(AttributeError):
            f.alpha = 2.0
        with pytest.raises(ValueError):
            f.coeffs[0] = 5.0
