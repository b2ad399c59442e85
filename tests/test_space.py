"""Tests for the core space module: kernels, norms, translations."""

import cmath
import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.special import gammaln

from fockspace import errors, space
from fockspace.space import FockFunction, LogComplex


# nan and +-inf in either part of a point
NON_FINITE_POINTS = [
    complex(v, 0.0) if real else complex(0.0, v)
    for real in (True, False)
    for v in (math.nan, math.inf, -math.inf)
]


def combo(alpha, nodes, weights):
    return FockFunction.kernel_combo(alpha, nodes, weights)


def basis(alpha, n):
    c = np.zeros(n + 1, dtype=complex)
    c[n] = 1.0
    return FockFunction.monomial(alpha, c)


def direct_monomial(f, zs):
    """Plain values of a monomial-form function by the recurrence
    ``e_n(z) = e_(n-1)(z) z sqrt(alpha / n)``, independent of the log engine."""
    zs = np.asarray(zs, dtype=np.complex128)
    out = np.zeros_like(zs)
    term = np.ones_like(zs)
    out += f.coeffs[0] * term
    for n in range(1, len(f.coeffs)):
        term = term * zs * math.sqrt(f.alpha / n)
        out += f.coeffs[n] * term
    return out


class TestLogComplex:
    def test_phase_reduction(self):
        assert LogComplex(0.0, -math.pi).phase == pytest.approx(math.pi)
        assert LogComplex(0.0, 3 * math.pi).phase == pytest.approx(math.pi)
        assert LogComplex(0.0, 0.3).phase == pytest.approx(0.3)
        assert LogComplex(0.0, 2 * math.pi + 0.3).phase == pytest.approx(0.3)

    def test_zero_encoding(self):
        z = LogComplex(-math.inf, 1.0)
        assert z.log_mag == -math.inf
        assert z.phase == 0.0
        assert z.to_complex() == 0j

    def test_round_trip(self):
        w = 2.5 * cmath.exp(1j * 0.7)
        back = LogComplex(math.log(2.5), 0.7).to_complex()
        assert abs(back - w) <= 1e-15 * abs(w)

    def test_overflow_guard(self):
        # the value belongs to no point, so no radius
        with pytest.raises(errors.Overflow) as info:
            LogComplex(800.0, 0.0).to_complex()
        assert info.value.fields == {"log_mag": 800.0}

    def test_rejects_nan(self):
        with pytest.raises(errors.ValidationError):
            LogComplex(math.nan, 0.0)


class TestLogFactorials:
    def test_matches_gammaln(self):
        # covers the branch edges of the reference at n = 11/12 and 998/999
        n = np.arange(20001)
        assert np.array_equal(space._log_factorials(20000), gammaln(n + 1.0))

    def test_large_n_branch(self):
        for n in (10**8 - 2, 10**8 - 1, 10**8, 10**8 + 1, 3 * 10**9, 10**15):
            assert space._log_factorial(n) == gammaln(n + 1.0)


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

    def test_hermitian_symmetry(self):
        a, z, w = 0.7, 1.2 - 0.3j, -0.4 + 2j
        assert space.kernel(a, z, w) == pytest.approx(
            space.kernel(a, w, z).conjugate(), rel=1e-14
        )

    @pytest.mark.parametrize("bad", NON_FINITE_POINTS)
    @pytest.mark.parametrize("name", ["z", "zeta"])
    def test_rejects_non_finite_points(self, name, bad):
        # the log form would otherwise come back nan+nanj
        args = {"z": 1.0, "zeta": 1.0, name: bad}
        with pytest.raises(errors.ValidationError, match=f"^{name} must be finite"):
            space.kernel(1.0, args["z"], args["zeta"])


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
            direct = direct_monomial(f, z)
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

    @pytest.mark.parametrize("kind", ["monomial", "kernel"])
    def test_scalar_equals_array_of_one(self, kind):
        rng = np.random.default_rng(5)
        c = rng.normal(size=9) + 1j * rng.normal(size=9)
        f = FockFunction.monomial(0.7, c) if kind == "monomial" else combo(0.7, 3.0 * c, c[::-1])
        for z in rng.uniform(-6, 6, 20) + 1j * rng.uniform(-6, 6, 20):
            for value in (space.eval_weighted, space.eval):
                one = value(f, z)
                assert type(one) is complex
                assert one == value(f, np.array([z]))[0]

    @pytest.mark.parametrize("z", [30.0 + 0j, np.array([0.0, 30.0 + 0j])])
    def test_weighted_overflow_fields(self, z):
        # weighted K(., 60) at 30 is exp(1800 - 450)
        f = combo(1.0, [60.0], [1.0])
        with pytest.raises(errors.Overflow) as info:
            space.eval_weighted(f, z)
        assert info.value.fields == {"log_mag": pytest.approx(1350.0), "radius": 30.0}

    @pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, math.nan)])
    @pytest.mark.parametrize("value", ["eval", "eval_weighted", "eval_weighted_log"])
    def test_rejects_non_finite_points(self, value, bad):
        # the log engine would otherwise hand back NaN
        f = FockFunction.monomial(1.0, [1.0, 2.0])
        with pytest.raises(errors.ValidationError, match="evaluation points must be finite"):
            getattr(space, value)(f, bad)
        if value != "eval_weighted_log":
            with pytest.raises(errors.ValidationError, match="evaluation points must be finite"):
                getattr(space, value)(f, np.array([0.5, bad]))

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

    @pytest.mark.parametrize("scale", [1e200, 1e-200])
    def test_pythagoras_past_the_squares_range(self, scale):
        f = FockFunction.monomial(1.0, [scale, scale])
        assert space.norm2(f) == pytest.approx(math.sqrt(2.0) * scale, rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("scale", [1e300, 1e-320])
    def test_scaled_norm(self, scale):
        # the squares of these pass the double range either way; vectors
        # of ordinary size keep np.linalg.norm's bits
        rel = 1e-15 if scale > 1.0 else 1e-3
        v = np.full(81, scale * (0.6 + 0.8j))
        assert space._norm(v) == pytest.approx(9.0 * scale, rel=rel, abs=0.0)
        assert space._norm(v.real) == pytest.approx(5.4 * scale, rel=rel, abs=0.0)
        w = np.random.default_rng(3).normal(size=(2, 50))
        assert space._norm(w[0]) == np.linalg.norm(w[0])
        assert space._norm(w[0] + 1j * w[1]) == np.linalg.norm(w[0] + 1j * w[1])

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

    @settings(max_examples=60)
    @given(
        st.floats(0.25, 4.0),
        st.lists(st.complex_numbers(max_magnitude=3.0), min_size=1, max_size=6, unique=True),
        st.lists(st.complex_numbers(min_magnitude=0.1, max_magnitude=2.0), min_size=6, max_size=6),
        st.complex_numbers(max_magnitude=4.0),
    )
    def test_isometry_property(self, alpha, nodes, weights, a):
        zs = np.array(nodes)
        assume(np.all(np.abs(zs[:, None] - zs[None, :])[np.triu_indices(zs.size, 1)] >= 0.05))
        f = combo(alpha, zs, weights[: zs.size])
        n0, n1 = space.norm2(f), space.norm2(space.translate(f, a))
        assert abs(n1 - n0) <= 1e-12 * n0

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

    @pytest.mark.parametrize("bad", NON_FINITE_POINTS)
    def test_rejects_non_finite_shift(self, bad):
        f = combo(1.0, [1.0, 2.0], [1.0, -0.5j])
        with pytest.raises(errors.ValidationError, match="^a must be finite"):
            space.translate(f, bad)


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
            want = direct_monomial(f, z)
            assert abs(got - want) <= 1e-10 * (1 + abs(want))

    def test_reproducing_property_is_exact(self):
        # <f, K_z> is f(z) from the same log engine, bit for bit
        rng = np.random.default_rng(19)
        c = rng.normal(size=13) + 1j * rng.normal(size=13)
        f = FockFunction.monomial(1.0, c)
        for z in rng.uniform(-4, 4, 200) + 1j * rng.uniform(-4, 4, 200):
            k = combo(1.0, [z], [1.0])
            assert space.inner(f, k) == space.eval(f, z)
            assert space.inner(k, f) == space.eval(f, z).conjugate()

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


# f = K(40, .): |f(20)| = exp(800), ||f|| = exp(800), <f, f> = exp(1600)
K40 = combo(1.0, [40.0], [1.0])
# |e_200(300)| = 300^200 / sqrt(200!), about exp(709)
E200_AT_300 = 200 * math.log(300.0) - 0.5 * math.lgamma(201.0)

OVERFLOWS = {
    "eval-point": (lambda: space.eval(K40, 20.0), 800.0, 20.0),
    "eval-array": (lambda: space.eval(K40, np.array([0.0, 20.0])), 800.0, 20.0),
    "kernel": (lambda: space.kernel(1.0, 30.0, 30.0), 900.0, 30.0),
    "translate": (lambda: space.translate(K40, -40.0), 800.0, 40.0),
    "norm2": (lambda: space.norm2(K40), 800.0, None),
    "inner-kernel-kernel": (lambda: space.inner(K40, K40), 1600.0, None),
    "inner-monomial-kernel": (
        lambda: space.inner(basis(1.0, 200), combo(1.0, [300.0], [1.0])), E200_AT_300, 300.0
    ),
    "inner-kernel-monomial": (
        lambda: space.inner(combo(1.0, [300.0], [1.0]), basis(1.0, 200)), E200_AT_300, 300.0
    ),
}


class TestOverflow:
    @pytest.mark.parametrize("case", OVERFLOWS)
    def test_fields(self, case):
        """Every plain value leaves the log domain through one guard: its
        Overflow carries log_mag, and radius where the value belongs to a point."""
        call, log_mag, radius = OVERFLOWS[case]
        with pytest.raises(errors.Overflow) as info:
            call()
        want = {"log_mag": pytest.approx(log_mag, rel=1e-12)}
        if radius is not None:
            want["radius"] = radius
        assert info.value.fields == want


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
