import math

import numpy as np
import pytest

from grassgeo import linalg as la
from grassgeo.errors import (
    BranchCut,
    DomainError,
    InvalidInput,
    NotHermitian,
    NotPositive,
)

from conftest import mp_expm, random_hermitian


def power_iteration_norm(a: np.ndarray, steps: int = 5000) -> float:
    """Independent oracle: largest singular value via power iteration on a* a."""
    g = a.conj().T @ a
    v = np.ones(a.shape[1], dtype=complex) / np.sqrt(a.shape[1])
    lam = 0.0
    for _ in range(steps):
        w = g @ v
        new = np.linalg.norm(w)
        if new == 0.0:
            return 0.0
        v = w / new
        if abs(new - lam) < 1e-14 * max(1.0, new):
            lam = new
            break
        lam = new
    return float(np.sqrt(lam))


class TestOpNorm:
    def test_identity(self):
        assert la.op_norm(np.eye(3)) == pytest.approx(1.0, abs=1e-14)

    def test_diagonal(self):
        assert la.op_norm(np.diag([2.0, -3.0j])) == pytest.approx(3.0, abs=1e-14)

    def test_matches_power_iteration(self, rng):
        a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        assert la.op_norm(a) == pytest.approx(power_iteration_norm(a), abs=1e-8)

    def test_rejects_non_finite(self):
        bad = np.array([[1.0, np.nan], [0.0, 1.0]])
        with pytest.raises(InvalidInput):
            la.op_norm(bad)

    def test_submultiplicative_and_unitarily_invariant(self, rng):
        for n in range(2, 9):
            a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            b = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            u = la.random_unitary(n, rng)
            v = la.random_unitary(n, rng)
            assert la.op_norm(a @ b) <= la.op_norm(a) * la.op_norm(b) + 1e-9
            assert la.op_norm(u @ a @ v) == pytest.approx(la.op_norm(a), abs=1e-9)


SHAPES = [(m, n) for m in (1, 2, 5, 16, 64) for n in (1, 3, 16, 64)] + [(7, 7), (48, 16)]


def svd_norm(a: np.ndarray) -> float:
    return float(np.linalg.svd(a, compute_uv=False)[0])


def complex_block(rng, m, n, rank=None):
    """A random m x n complex block, of the given rank when one is given."""
    r = min(m, n) if rank is None else rank
    left = rng.standard_normal((m, r)) + 1j * rng.standard_normal((m, r))
    right = rng.standard_normal((r, n)) + 1j * rng.standard_normal((r, n))
    return left @ right


class TestOpNormKernel:
    """``_op_norm`` (the Gram route) and ``op_norm`` against the largest
    singular value of an SVD, within 4 max(m, n) eps relative."""

    @staticmethod
    def assert_close(a):
        ref = svd_norm(a)
        tol = 4 * max(a.shape) * np.finfo(float).eps * ref
        assert abs(la._op_norm(a) - ref) <= tol
        assert abs(la.op_norm(a) - ref) <= tol

    @pytest.mark.parametrize("m, n", SHAPES, ids=[f"{m}x{n}" for m, n in SHAPES])
    def test_full_rank(self, m, n, rng):
        self.assert_close(complex_block(rng, m, n))

    @pytest.mark.parametrize("m, n, rank", [(16, 8, 3), (8, 16, 1), (12, 12, 5), (64, 16, 2),
                                            (3, 64, 2)])
    def test_rank_deficient(self, m, n, rank, rng):
        self.assert_close(complex_block(rng, m, n, rank))

    @pytest.mark.parametrize("scale", [1e-200, 1e200])
    @pytest.mark.parametrize("m, n", [(1, 1), (6, 3), (3, 6), (64, 16), (9, 9)])
    def test_extreme_scales(self, m, n, scale, rng):
        # the Gram matrix of the unscaled block would underflow to zero or
        # overflow to inf
        self.assert_close(complex_block(rng, m, n) * scale)
        self.assert_close(complex_block(rng, m, n, 1) * scale)

    def test_real_input(self, rng):
        self.assert_close(rng.standard_normal((10, 4)))

    @pytest.mark.parametrize("m, n", [(1, 1), (5, 3), (64, 16)])
    def test_zero_block_is_exactly_zero(self, m, n):
        assert la._op_norm(np.zeros((m, n), dtype=complex)) == 0.0
        assert la.op_norm(np.zeros((m, n))) == 0.0

    @pytest.mark.parametrize("m, n", [(0, 0), (0, 4), (4, 0)])
    def test_empty_block_is_zero(self, m, n):
        assert la._op_norm(np.zeros((m, n), dtype=complex)) == 0.0


class TestHermitianEig:
    def test_diagonal(self):
        w, v = la.hermitian_eig(np.diag([1.0, 2.0]))
        assert np.allclose(w, [1.0, 2.0])
        assert np.abs(v.conj().T @ v - np.eye(2)).max() < 1e-14

    def test_exchange_matrix_spectrum(self):
        w, _ = la.hermitian_eig(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.allclose(w, [-1.0, 1.0])

    def test_reconstruction(self, rng):
        a = random_hermitian(6, rng)
        w, v = la.hermitian_eig(a)
        assert np.abs((v * w) @ v.conj().T - a).max() < 1e-10
        assert np.abs(v.conj().T @ v - np.eye(6)).max() < 1e-10
        assert np.all(np.diff(w) >= 0)

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitian):
            la.hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestFuncCalc:
    def test_cos_on_diagonal(self):
        out = la.func_calc(np.cos, np.diag([0.0, np.pi / 3]))
        assert np.abs(out - np.diag([1.0, 0.5])).max() < 1e-14

    def test_identity_function(self, rng):
        a = random_hermitian(5, rng)
        assert np.abs(la.func_calc(lambda t: t, a) - a).max() < 1e-12

    def test_sinc_commutes_with_argument(self, rng):
        a = random_hermitian(6, rng)

        def sinc(t):
            return math.sin(t) / t if t != 0.0 else 1.0

        out = la.func_calc(sinc, a)
        assert la.op_norm(out @ a - a @ out) < 1e-9

    def test_spectral_mapping(self, rng):
        for _ in range(20):
            a = random_hermitian(4, rng)
            w, _ = la.hermitian_eig(a)
            fw, _ = la.hermitian_eig(la.func_calc(np.cos, a))
            assert np.abs(np.sort(np.cos(w)) - fw).max() < 1e-9

    def test_undefined_at_eigenvalue(self):
        a = np.diag([4.0, -1.0])
        with pytest.raises(DomainError):
            la.func_calc(math.sqrt, a)

    def test_complex_valued_function(self, rng):
        a = random_hermitian(4, rng)
        out = la.func_calc(lambda t: np.exp(1j * t), a)
        # unitary, generally not Hermitian
        assert np.abs(out.conj().T @ out - np.eye(4)).max() < 1e-10


class TestPolar:
    def test_scaled_identity(self):
        u, pos = la.polar(2.0 * np.eye(3))
        assert np.abs(u - np.eye(3)).max() < 1e-12
        assert np.abs(pos - 2.0 * np.eye(3)).max() < 1e-12

    def test_unitary_input(self, rng):
        a = la.random_unitary(4, rng)
        u, pos = la.polar(a)
        assert np.abs(u - a).max() < 1e-10
        assert np.abs(pos - np.eye(4)).max() < 1e-10

    def test_random_residuals(self, rng):
        a = la.random_invertible(4, rng)
        u, pos = la.polar(a)
        assert np.abs(u.conj().T @ u - np.eye(4)).max() < 1e-9
        assert np.abs(a - u @ pos).max() < 1e-9

    def test_residual_bound_across_dimensions(self, rng):
        for i in range(200):
            n = 2 + i % 7
            a = la.random_invertible(n, rng, 0.3, 3.0)
            u, pos = la.polar(a)
            assert la.op_norm(a - u @ pos) < 1e-9 * (1.0 + la.op_norm(a))


class TestExpLog:
    def test_expm_zero(self):
        assert np.abs(la.expm(np.zeros((3, 3))) - np.eye(3)).max() < 1e-14

    def test_expm_nilpotent(self):
        n = np.array([[0.0, 1.0], [0.0, 0.0]])
        assert np.abs(la.expm(n) - (np.eye(2) + n)).max() < 1e-12

    def test_log_posdef_diagonal(self):
        out = la.log_posdef(np.diag([np.e, np.e**2]))
        assert np.abs(out - np.diag([1.0, 2.0])).max() < 1e-12

    def test_unitary_log_roundtrip(self, rng):
        g = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        z = g - g.conj().T
        z *= (np.pi - 0.2) / np.linalg.norm(z, 2)
        assert np.abs(la.log_unitary(la.expm(z)) - z).max() < 1e-8

    def test_roundtrip_up_to_branch_margin(self, rng):
        for _ in range(50):
            n = int(rng.integers(2, 9))
            g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            z = g - g.conj().T
            z *= rng.uniform(0.01, np.pi - 0.1) / np.linalg.norm(z, 2)
            assert np.abs(la.log_unitary(la.expm(z)) - z).max() < 1e-6

    def test_branch_cut_rejected(self):
        with pytest.raises(BranchCut):
            la.log_unitary(np.diag([-1.0, 1.0]))

    def test_log_unitary_requires_unitary(self):
        with pytest.raises(InvalidInput):
            la.log_unitary(2.0 * np.eye(2))

    def test_log_posdef_requires_positive(self):
        with pytest.raises(NotPositive):
            la.log_posdef(np.diag([1.0, -2.0]))

    def test_sqrt_posdef(self):
        out = la.sqrt_posdef(np.diag([4.0, 9.0]))
        assert np.abs(out - np.diag([2.0, 3.0])).max() < 1e-12
        with pytest.raises(NotPositive):
            la.sqrt_posdef(np.diag([0.0, 1.0]))

    def test_exp_log_posdef_roundtrip(self, rng):
        h = random_hermitian(5, rng)
        assert np.abs(la.log_posdef(la.expm(h)) - h).max() < 1e-9

    def test_expm_general_matrix_against_series(self, rng):
        # Taylor series oracle converges fast for a contraction
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        a *= 0.5 / np.linalg.norm(a, 2)
        series = np.zeros_like(a)
        term = np.eye(4, dtype=complex)
        for k in range(1, 40):
            series += term
            term = term @ a / k
        assert np.abs(la.expm(a) - series).max() < 1e-13


def mp_spectral(v: np.ndarray, fw) -> np.ndarray:
    """``v diag(fw) v*`` in 40-digit arithmetic from the exact float64
    entries of ``v``; ``fw`` holds mpmath numbers."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        vm = mpmath.matrix(v.tolist())
        scaled = vm.copy()
        for j, f in enumerate(fw):
            for i in range(vm.rows):
                scaled[i, j] *= f
        return np.array((scaled * vm.H).tolist(), dtype=complex)


def plain_cayley_log(u: np.ndarray) -> np.ndarray:
    """The Cayley route of ``log_unitary`` without its turn away from -1."""
    ident = np.eye(u.shape[0])
    w, v = np.linalg.eigh(la.herm(1j * np.linalg.solve(ident + u, ident - u)))
    return la.spectral(v, 2j * np.arctan(w))


class TestPadeExpm:
    """The non-normal branch of ``expm`` against the exponential in 40-digit
    arithmetic, relative to its largest entry.  Draws are scaled to a given
    1-norm, so that norm 30 takes three squarings."""

    @pytest.mark.parametrize("norm", [1e-8, 1e-3, 0.5, 5.0, 30.0])
    @pytest.mark.parametrize("n", range(2, 9))
    def test_matches_mpmath(self, n, norm):
        rng = np.random.default_rng(100 * n + int(math.log10(norm) + 10))
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        a *= norm / np.abs(a).sum(axis=0).max()
        ref = mp_expm(a)
        assert np.abs(la.expm(a) - ref).max() <= 1e-13 * np.abs(ref).max()

    @pytest.mark.parametrize("side", [1 - 1e-6, 1 + 1e-6])
    @pytest.mark.parametrize("degree, theta", [
        (3, 1.495585217958292e-2), (5, 2.539398330063230e-1), (7, 9.504178996162932e-1),
        (9, 2.097847961257068), (13, 5.371920351148152)])  # Higham (2005), Table 2.3
    @pytest.mark.parametrize("n", range(2, 9))
    def test_either_side_of_each_degree_switch(self, n, degree, theta, side):
        # just below theta_m the degree-m approximant is used, just above
        # the next degree (or, above theta_13, one squaring)
        rng = np.random.default_rng(1000 * n + 10 * degree + (side > 1))
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        a *= theta * side / np.abs(a).sum(axis=0).max()
        ref = mp_expm(a)
        assert np.abs(la.expm(a) - ref).max() <= 1e-13 * np.abs(ref).max()

    @pytest.mark.parametrize("shift, step", [(0.7, 1.0), (-2.0 + 0.5j, 10.0)])
    def test_jordan_block(self, shift, step):
        a = shift * np.eye(6) + step * np.eye(6, k=1)
        ref = mp_expm(a)
        assert np.abs(la.expm(a) - ref).max() <= 1e-13 * np.abs(ref).max()


def unitary_with_angles(n: int, kind: str, seed: int):
    """``u = V diag(e^{i theta}) V*`` rounded from 40-digit arithmetic, with
    its exact logarithm ``V diag(i theta) V*``, for a Haar ``V``: angles
    spread over (-3, 3), half of them clustered within 1e-9 of 0.3 and one
    at -0.3, or the top angle at pi - 1e-8."""
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(seed)
    v = la.random_unitary(n, rng)
    theta = rng.uniform(-3.0, 3.0, size=n)
    if kind == "cluster":
        theta[: n // 2 + 1] = 0.3 + 1e-9 * rng.standard_normal(n // 2 + 1)
        theta[-1] = -0.3
    with mpmath.workdps(40):
        angles = [mpmath.mpf(t) for t in theta]
        if kind == "top":
            angles[0] = mpmath.pi - mpmath.mpf("1e-8")
        u = mp_spectral(v, [mpmath.expj(t) for t in angles])
        z = mp_spectral(v, [mpmath.mpc(0, t) for t in angles])
    return u, z


LOG_CASES = [(n, kind) for n in (2, 3, 5, 8, 16) for kind in ("spread", "cluster", "top")]
LOG_CASES += [(64, "cluster"), (64, "top")]


class TestLogUnitaryOracle:
    """``log_unitary`` against the exact logarithm of ``V diag(e^{i theta})
    V*``, absolute; near the cut the plain Cayley transform loses
    ``eps / |1 + lambda|`` and fails the same gate."""

    @pytest.mark.parametrize("n, kind", LOG_CASES)
    def test_matches_mpmath(self, n, kind):
        u, z = unitary_with_angles(n, kind, 7 * n)
        assert np.abs(la.log_unitary(u) - z).max() <= 1e-12

    @pytest.mark.parametrize("n", [5, 16])
    def test_plain_cayley_fails_near_the_cut(self, n):
        u, z = unitary_with_angles(n, "top", 7 * n)
        assert np.abs(plain_cayley_log(u) - z).max() > 1e-12

    @pytest.mark.parametrize("dist, raises", [(1e-10, True), (1e-8, False)])
    def test_branch_cut_threshold(self, rng, dist, raises):
        # |1 + e^{i(pi - d)}| = 2 sin(d/2), within rounding of d
        v = la.random_unitary(4, rng)
        theta = np.array([np.pi - dist, 0.5, -1.0, 2.0])
        u = la.spectral(v, np.exp(1j * theta))
        if raises:
            with pytest.raises(BranchCut):
                la.log_unitary(u)
        else:
            assert np.abs(la.log_unitary(u) - la.spectral(v, 1j * theta)).max() <= 1e-12


class TestStackHelpers:
    def test_adj_and_herm_act_per_matrix(self, rng):
        a = rng.standard_normal((3, 4, 4)) + 1j * rng.standard_normal((3, 4, 4))
        assert all(np.array_equal(la.adj(a)[i], a[i].conj().T) for i in range(3))
        assert all(np.array_equal(la.herm(a)[i], la.herm(a[i])) for i in range(3))

    def test_spectral_reassembles(self, rng):
        h = random_hermitian(5, rng)
        w, v = np.linalg.eigh(h)
        assert np.abs(la.spectral(v, w) - h).max() < 1e-12
        fws = np.stack([np.exp(w), np.cos(w)])
        stacked = la.spectral(v, fws)
        assert stacked.shape == (2, 5, 5)
        for fw, out in zip(fws, stacked):
            assert np.abs(out - v @ np.diag(fw) @ v.conj().T).max() < 1e-12


class TestUtilities:
    def test_tolerance_positive(self):
        with pytest.raises(InvalidInput):
            la.Tolerance(eq_tol=-1.0)

    def test_svd_range_projection(self, rng):
        b = rng.standard_normal((5, 2)) + 1j * rng.standard_normal((5, 2))
        q, _ = np.linalg.qr(b)
        a = q @ (rng.standard_normal((2, 5)) + 1j * rng.standard_normal((2, 5)))
        proj = la.svd_range_projection(a)
        assert np.abs(proj - q @ q.conj().T).max() < 1e-10

    def test_svd_range_projection_zero(self):
        assert np.abs(la.svd_range_projection(np.zeros((3, 3)))).max() == 0.0
