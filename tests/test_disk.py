import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from grassgeo import disk as dk
from grassgeo import grassmann as gr
from grassgeo import linalg as la
from grassgeo import moebius as mo
from grassgeo import projective as pj
from grassgeo import verify
from grassgeo.errors import InvalidInput, NotEpsUnitary, NotInDisk, NotInLp, NotPositive

from conftest import mp_expm, random_hermitian


def plane_projection():
    return pj.Projection(np.diag([1.0, 0.0]).astype(complex))


def hyperbolic_element(p, r):
    """Cone element whose square root is the hyperbolic rotation by r."""
    x = mo.HpVector(np.array([[0.0, 0.0], [2.0 * r, 0.0]], dtype=complex), p)
    return dk.PositiveEpsUnitary.from_xparam(x)


def commuting_unitary(p, rng):
    b, bc = p.range_basis, p.null_basis
    w = np.zeros_like(p.mat)
    if p.rank:
        w += b @ la.random_unitary(p.rank, rng) @ b.conj().T
    if p.dim - p.rank:
        w += bc @ la.random_unitary(p.dim - p.rank, rng) @ bc.conj().T
    return w


class TestEpsUnitarity:
    def test_identity(self):
        p = pj.random_projection(4, 2, 0)
        assert dk.is_eps_unitary(np.eye(4), p)

    def test_commuting_unitary(self, rng):
        p = pj.random_projection(5, 2, 1)
        assert dk.is_eps_unitary(commuting_unitary(p, rng), p)

    def test_exp_of_anticommuting_hermitian(self, rng):
        p = pj.random_projection(5, 2, 1)
        x = mo.random_hp_vector(p, rng, 0.8)
        u = la.expm(x.mat + x.mat.conj().T)
        assert dk.is_eps_unitary(u, p)

    def test_generic_matrix_fails(self, rng):
        p = pj.random_projection(4, 2, 0)
        assert not dk.is_eps_unitary(la.random_invertible(4, rng), p)

    def test_implies_formula_for_inverse(self, rng):
        p = pj.random_projection(5, 3, 2)
        u = dk.random_eps_unitary(p, rng).mat
        eps = 2 * p.mat - np.eye(5)
        assert np.abs(u @ (eps @ u.conj().T @ eps) - np.eye(5)).max() < 1e-9

    def test_block_conditions(self, rng):
        # an eps-unitary satisfies a*a - b*b = p, d*d - c*c = 1 - p and
        # a*c = b*d for its four blocks over p
        p = pj.random_projection(6, 3, 3)
        u = dk.random_eps_unitary(p, rng).mat
        pm = p.mat
        pc = np.eye(6) - pm
        a, c = pm @ u @ pm, pm @ u @ pc
        b, d = pc @ u @ pm, pc @ u @ pc
        assert np.abs(a.conj().T @ a - b.conj().T @ b - pm).max() < 1e-9
        assert np.abs(d.conj().T @ d - c.conj().T @ c - pc).max() < 1e-9
        assert np.abs(a.conj().T @ c - b.conj().T @ d).max() < 1e-9

    def test_symmetry_object(self):
        p = pj.random_projection(4, 1, 4)
        eps = dk.EpsSymmetry(p)
        assert np.abs(eps.mat @ eps.mat - np.eye(4)).max() < 1e-12
        assert np.abs(eps.mat - eps.mat.conj().T).max() < 1e-12

    def test_wrapper_rejects_generic_matrix(self, rng):
        p = pj.random_projection(4, 2, 0)
        with pytest.raises(NotEpsUnitary):
            dk.EpsUnitary(la.random_invertible(4, rng), p)

    def test_cone_type_rejects_bad_input(self):
        p = plane_projection()
        from grassgeo.errors import NotPositive
        with pytest.raises(NotPositive):
            dk.PositiveEpsUnitary(np.array([[1.0, 1.0], [0.0, 1.0]]), p)
        with pytest.raises(NotPositive):
            dk.PositiveEpsUnitary(np.diag([1.0, -1.0]), p)
        with pytest.raises(NotEpsUnitary):
            dk.PositiveEpsUnitary(np.diag([2.0, 1.0]), p)

    def test_disk_point_requires_matching_preimage(self):
        p = plane_projection()
        lam = hyperbolic_element(p, 0.5)
        other = hyperbolic_element(p, 0.9)
        point = dk.cone_to_disk(lam).point
        with pytest.raises(InvalidInput):
            dk.DiskPoint(point, other)


class TestConeElements:
    def test_scalar_hyperbolic_rotation(self):
        p = plane_projection()
        r = 0.8
        lam = hyperbolic_element(p, r)
        expected_root = np.array([[np.cosh(r), np.sinh(r)], [np.sinh(r), np.cosh(r)]])
        assert np.abs(lam.sqrt - expected_root).max() < 1e-10

    def test_seeded_instance(self):
        p = pj.random_projection(6, 3, 7)
        lam = dk.random_pos_eps_unitary(p, 1.0, 7)
        assert dk.is_eps_unitary(lam.mat, p)
        assert np.linalg.eigvalsh(lam.mat).min() > 0
        assert lam.xparam.norm <= 1.0 + 1e-12

    def test_scale_validation(self):
        p = pj.random_projection(4, 2, 0)
        with pytest.raises(InvalidInput):
            dk.random_pos_eps_unitary(p, 0.0, 1)

    def test_cosh_sinh_blocks(self, rng):
        for _ in range(15):
            n = int(rng.integers(2, 9))
            p = pj.random_projection(n, int(rng.integers(1, n)), int(rng.integers(2**32)))
            lam = dk.random_pos_eps_unitary(p, 1.2, int(rng.integers(2**32)))
            b, bc = p.range_basis, p.null_basis
            xb = bc.conj().T @ lam.xparam.mat @ b
            w, v = np.linalg.eigh(la.herm(xb.conj().T @ xb))
            s = np.sqrt(np.clip(w, 0, None))
            cosh_blk = (v * np.cosh(s)) @ v.conj().T
            assert np.abs(b.conj().T @ lam.mat @ b - cosh_blk).max() < 1e-6

    def test_corner_norm_is_sinh(self, rng):
        # for any eps-unitary the corner norm equals sinh of the positive
        # part's parameter norm (hyperbolic, not trigonometric)
        p = pj.random_projection(5, 2, 8)
        u = dk.random_eps_unitary(p, rng).mat
        absu = dk.PositiveEpsUnitary(la.psd_sqrt(u.conj().T @ u), p)
        pc = np.eye(5) - p.mat
        expected = np.sinh(absu.xparam.norm)
        eps = 2 * p.mat - np.eye(5)
        u_inv = eps @ u.conj().T @ eps
        assert la.op_norm(pc @ u @ p.mat) == pytest.approx(expected, abs=1e-9)
        assert la.op_norm(pc @ u_inv @ p.mat) == pytest.approx(expected, abs=1e-9)
        assert la.op_norm(pc @ u.conj().T @ p.mat) == pytest.approx(expected, abs=1e-9)

    def test_powers_stay_in_cone(self, rng):
        p = pj.random_projection(5, 2, 9)
        lam = dk.random_pos_eps_unitary(p, 1.0, 5)
        eps = 2 * p.mat - np.eye(5)
        for t in (-1.0, 0.5, 2.0, 0.3):
            lt = lam.power(t).mat
            assert np.abs(lt @ eps @ lt - eps).max() < 1e-9

    def test_closure_under_star_inverse_modulus(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 9))
            p = pj.random_projection(n, int(rng.integers(1, n)), int(rng.integers(2**32)))
            eps = 2 * p.mat - np.eye(n)
            u = dk.random_eps_unitary(p, rng).mat
            v = dk.random_eps_unitary(p, rng).mat
            u_inv = eps @ u.conj().T @ eps
            for w in (u.conj().T, u_inv, la.psd_sqrt(u.conj().T @ u), u @ v):
                assert np.abs(w.conj().T @ eps @ w - eps).max() < 1e-9


class TestDiskCoordinates:
    def test_identity_maps_to_base(self):
        p = pj.random_projection(4, 2, 3)
        lam = dk.PositiveEpsUnitary(np.eye(4, dtype=complex), p)
        m = dk.cone_to_disk(lam)
        assert np.abs(m.point.range.mat - p.mat).max() < 1e-12

    def test_scalar_chart_norm_is_tanh(self):
        p = plane_projection()
        r = 0.9
        m = dk.cone_to_disk(hyperbolic_element(p, r))
        base = dk.base_disk_point(p)
        assert mo.d_chart(m.point, base.point) == pytest.approx(np.tanh(r), abs=1e-10)

    def test_roundtrip(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 9))
            p = pj.random_projection(n, int(rng.integers(1, n)), int(rng.integers(2**32)))
            lam = dk.random_pos_eps_unitary(p, 1.2, int(rng.integers(2**32)))
            m = dk.cone_to_disk(lam)
            back = dk.disk_to_cone(m)
            assert np.abs(back.mat - lam.mat).max() < 1e-8
            again = dk.cone_to_disk(back)
            assert pj.class_equal(again.point, m.point)

    def test_roundtrip_far_from_center(self):
        # chart norm tanh(2) ~ 0.964; the reconstruction must stay sharp
        p = pj.random_projection(5, 2, 3)
        lam = dk.random_pos_eps_unitary(p, 4.0, 8)
        back = dk.disk_to_cone(dk.cone_to_disk(lam))
        scale = np.linalg.norm(lam.mat, 2)
        assert np.abs(back.mat - lam.mat).max() < 1e-10 * scale

    def test_outside_disk_rejected(self, rng):
        p = pj.random_projection(4, 2, 6)
        x = mo.random_hp_vector(p, rng, 1.5)
        far = mo.chart(x)
        with pytest.raises(NotInDisk):
            dk.disk_to_cone(far)

    def test_non_finite_point_rejected(self):
        p = plane_projection()
        q = pj.Projection(np.diag([0.0, 1.0]).astype(complex))
        m = pj.point_from_projection(q, p)
        with pytest.raises(NotInDisk):
            dk.disk_to_cone(m)


class TestDiskMetrics:
    def test_rho_vanishes_on_diagonal(self):
        p = pj.random_projection(4, 2, 3)
        m = dk.cone_to_disk(dk.random_pos_eps_unitary(p, 1.0, 1))
        assert dk.rho(m, m) < 1e-12

    def test_scalar_rho_is_sinh(self):
        p = plane_projection()
        r = 0.75
        m = dk.cone_to_disk(hyperbolic_element(p, r))
        base = dk.base_disk_point(p)
        assert dk.rho(m, base) == pytest.approx(np.sinh(r), abs=1e-10)

    def test_rho_at_base_is_sinh_of_half_parameter(self, rng):
        # the square-root representative has parameter xparam / 2
        for seed in range(8):
            n = int(rng.integers(2, 9))
            p = pj.random_projection(n, int(rng.integers(1, n)), int(rng.integers(2**32)))
            m = dk.cone_to_disk(dk.random_pos_eps_unitary(p, 1.4, seed))
            base = dk.base_disk_point(p)
            assert dk.rho(m, base) == pytest.approx(
                np.sinh(m.lam.xparam.norm / 2), abs=1e-9)

    def test_rho_reduction_and_symmetry(self, rng):
        for _ in range(15):
            n = int(rng.integers(2, 9))
            p = pj.random_projection(n, int(rng.integers(1, n)), int(rng.integers(2**32)))
            m = dk.cone_to_disk(dk.random_pos_eps_unitary(p, 1.0, int(rng.integers(2**32))))
            k = dk.cone_to_disk(dk.random_pos_eps_unitary(p, 1.0, int(rng.integers(2**32))))
            r1 = dk.rho(m, k)
            assert r1 == pytest.approx(dk.rho(k, m), abs=1e-10)
            # rho reduces eps nu^{1/2} p to nu^{-1/2} p; the n x n product
            # through eps is the independent route
            pc = np.eye(n) - p.mat
            alt = la.op_norm(pc @ m.lam.sqrt.conj().T @ p.eps @ k.lam.sqrt @ p.mat)
            assert r1 == pytest.approx(alt, abs=1e-10)

    @pytest.mark.parametrize("sigma", [1.0, 8.0, 15.0, 28.0])
    @pytest.mark.parametrize("n, rank", [(2, 1), (4, 1), (6, 3), (8, 5), (16, 4)])
    def test_non_euclidean_on_a_ray(self, n, rank, sigma):
        # the disk point of exp(x + x*) lies at exactly ||x|| / 2 from the
        # center; the artanh form lost 4e-11 at sigma = 15 and 1e-5 at 28.
        # Past sigma = 2 artanh(1 - eq_tol) ~ 21.4 cone_to_disk raises
        # NotInDisk, so the point is built as it builds it, without that
        # decision, to check the formula on the whole ray
        p = pj.random_projection(n, rank, n + rank)
        x = mo.random_hp_vector(p, np.random.default_rng(rank), sigma)
        lam = dk.PositiveEpsUnitary.from_xparam(x)
        m = pj._trusted(dk.DiskPoint, point=pj.classify(lam.sqrt @ p.mat, p), lam=lam)
        base = dk.base_disk_point(p)
        assert abs(dk.d_non_euclidean(m, base) - sigma / 2) <= 1e-13
        assert abs(dk.d_non_euclidean(base, m) - sigma / 2) <= 1e-13

    def test_scalar_pseudo_chordal_is_tanh(self):
        p = plane_projection()
        r = 0.75
        m = dk.cone_to_disk(hyperbolic_element(p, r))
        base = dk.base_disk_point(p)
        assert dk.d_pseudo_chordal(m, base) == pytest.approx(np.tanh(r), abs=1e-10)

    def test_pseudo_chordal_equals_chart_norm_at_base(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 9))
            p = pj.random_projection(n, int(rng.integers(1, n)), int(rng.integers(2**32)))
            m = dk.cone_to_disk(dk.random_pos_eps_unitary(p, 1.0, int(rng.integers(2**32))))
            base = dk.base_disk_point(p)
            assert dk.d_pseudo_chordal(m, base) == pytest.approx(
                mo.d_chart(m.point, base.point), abs=1e-9)

    def test_unit_hyperbolic_non_euclidean_distance(self):
        p = plane_projection()
        m = dk.cone_to_disk(hyperbolic_element(p, 1.0))
        base = dk.base_disk_point(p)
        assert dk.d_pseudo_chordal(m, base) == pytest.approx(np.tanh(1.0), abs=1e-12)
        assert dk.d_non_euclidean(m, base) == pytest.approx(1.0, abs=1e-10)

    def test_scalar_cone_distance(self):
        p = plane_projection()
        r = 0.6
        m = dk.cone_to_disk(hyperbolic_element(p, r))
        base = dk.base_disk_point(p)
        assert dk.d_cone(m, base) == pytest.approx(2.0 * r, abs=1e-10)
        assert dk.d_cone(m, base) == pytest.approx(m.lam.xparam.norm, abs=1e-10)

    def test_twice_non_euclidean_equals_cone_distance(self, rng):
        for _ in range(30):
            n = int(rng.integers(2, 9))
            p = pj.random_projection(n, int(rng.integers(1, n)), int(rng.integers(2**32)))
            m = dk.cone_to_disk(dk.random_pos_eps_unitary(p, 1.0, int(rng.integers(2**32))))
            k = dk.cone_to_disk(dk.random_pos_eps_unitary(p, 1.0, int(rng.integers(2**32))))
            assert 2 * dk.d_non_euclidean(m, k) == pytest.approx(dk.d_cone(m, k), abs=1e-8)

    @pytest.mark.parametrize("metric", [dk.rho, dk.d_pseudo_chordal, dk.d_non_euclidean,
                                        dk.d_cone])
    def test_dimension_mismatch_is_invalid_input(self, metric):
        p4, p5 = pj.random_projection(4, 2, 1), pj.random_projection(5, 2, 1)
        m = dk.cone_to_disk(dk.random_pos_eps_unitary(p4, 1.0, 2))
        k = dk.cone_to_disk(dk.random_pos_eps_unitary(p5, 1.0, 3))
        with pytest.raises(InvalidInput):
            metric(m, k)
        with pytest.raises(InvalidInput):
            metric(k, m)

    def test_cone_distance_checks_contexts(self):
        mu = dk.random_pos_eps_unitary(pj.random_projection(4, 2, 1), 1.0, 2)
        nu = dk.random_pos_eps_unitary(pj.random_projection(4, 2, 5), 1.0, 3)
        five = dk.random_pos_eps_unitary(pj.random_projection(5, 2, 1), 1.0, 3)
        with pytest.raises(InvalidInput):
            dk.d_cone(mu, nu)
        with pytest.raises(InvalidInput):
            dk.d_cone(mu, five)


class TestConeGeodesics:
    def test_endpoints(self):
        p = pj.random_projection(5, 2, 4)
        mu = dk.random_pos_eps_unitary(p, 1.0, 1)
        nu = dk.random_pos_eps_unitary(p, 1.0, 2)
        assert np.abs(dk.eps_geodesic(mu, nu, 0.0).mat - nu.mat).max() < 1e-10
        assert np.abs(dk.eps_geodesic(mu, nu, 1.0).mat - mu.mat).max() < 1e-10

    def test_constant_when_equal(self):
        p = pj.random_projection(5, 2, 4)
        mu = dk.random_pos_eps_unitary(p, 1.0, 1)
        assert np.abs(dk.eps_geodesic(mu, mu, 0.4).mat - mu.mat).max() < 1e-10

    def test_stays_in_cone(self):
        p = pj.random_projection(5, 2, 4)
        mu = dk.random_pos_eps_unitary(p, 1.0, 1)
        nu = dk.random_pos_eps_unitary(p, 1.0, 2)
        eps = 2 * p.mat - np.eye(5)
        for t in np.linspace(0, 1, 50):
            gam = dk.eps_geodesic(mu, nu, float(t)).mat
            assert np.abs(gam @ eps @ gam - eps).max() < 1e-9

    def test_midpoint_equidistant(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 9))
            p = pj.random_projection(n, int(rng.integers(1, n)), int(rng.integers(2**32)))
            mu = dk.random_pos_eps_unitary(p, 1.0, int(rng.integers(2**32)))
            nu = dk.random_pos_eps_unitary(p, 1.0, int(rng.integers(2**32)))
            total = dk.d_cone(mu, nu)
            mid = dk.eps_geodesic(mu, nu, 0.5)
            assert dk.d_cone(mid, mu) == pytest.approx(0.5 * total, abs=1e-8)
            assert dk.d_cone(mid, nu) == pytest.approx(0.5 * total, abs=1e-8)

    def test_distance_linear_along_curve(self, rng):
        p = pj.random_projection(6, 3, 5)
        mu = dk.random_pos_eps_unitary(p, 1.0, 3)
        nu = dk.random_pos_eps_unitary(p, 1.0, 4)
        total = dk.d_cone(mu, nu)
        for t in (0.2, 0.35, 0.8):
            gam = dk.eps_geodesic(mu, nu, t)
            assert dk.d_cone(nu, gam) == pytest.approx(t * total, abs=1e-8)

    def test_discretized_length_matches_distance(self):
        p = pj.random_projection(5, 2, 4)
        mu = dk.random_pos_eps_unitary(p, 1.0, 1)
        nu = dk.random_pos_eps_unitary(p, 1.0, 2)
        samples = dk.eps_geodesic_samples(mu, nu, np.linspace(0, 1, 2000))
        assert dk.cone_polyline_length(samples) == pytest.approx(
            dk.d_cone(mu, nu), abs=1e-4)

    def test_perturbed_paths_not_shorter(self, rng):
        p = pj.random_projection(5, 2, 4)
        mu = dk.random_pos_eps_unitary(p, 1.0, 1)
        nu = dk.random_pos_eps_unitary(p, 1.0, 2)
        dist = dk.d_cone(mu, nu)
        ts = np.linspace(0, 1, 2000)
        eps = 2 * p.mat - np.eye(5)
        for _ in range(5):
            h = random_hermitian(5, rng)
            h *= rng.uniform(0.05, 0.4) / np.linalg.norm(h, 2)
            path = dk.cone_perturbed_path(mu, nu, h, ts)
            assert np.abs(path[0] - nu.mat).max() < 1e-10
            assert np.abs(path[-1] - mu.mat).max() < 1e-10
            residual = np.abs(path @ eps @ path - eps).max()
            assert residual < 1e-8
            assert dk.cone_polyline_length(path) >= dist - 1e-6


def _kernel_cases():
    small = [(n, r) for n in range(2, 9) for r in range(n + 1)]
    large = [(n, r) for n in (16, 32, 64) for r in sorted({0, 1, n // 4, n // 2, n - 1, n})]
    return small + large


def _oracle_steps(lams):
    """Cone steps by the inverse square root of every sample: the eigenvalues
    of ``A_{j+1}^{-1/2} A_j A_{j+1}^{-1/2}``."""
    w, v = np.linalg.eigh(la.herm(lams))
    inv_sqrt = (v / np.sqrt(w)[..., None, :]) @ la.adj(v)
    mid = inv_sqrt[1:] @ lams[:-1] @ inv_sqrt[1:]
    return np.abs(np.log(np.linalg.eigvalsh(la.herm(mid)))).max(axis=-1)


def _cone_instance(n, rank):
    seed = 100 * n + rank
    p = pj.random_projection(n, rank, seed)
    mu = dk.random_pos_eps_unitary(p, 1.0, seed + 1)
    nu = dk.random_pos_eps_unitary(p, 1.0, seed + 2)
    h = random_hermitian(n, np.random.default_rng(seed + 3))
    h *= 0.3 / np.linalg.norm(h, 2)
    return p, mu, nu, h


class TestConeCurveKernels:
    """The generator-form perturbed path, the one-product geodesic samples
    and the Cholesky polyline steps, at every rank of small dimensions and
    at ranks 0, 1, n/4, n/2, n-1 and n of 16, 32 and 64."""

    @pytest.mark.parametrize("n, rank", _kernel_cases())
    def test_perturbed_path_is_a_cone_path(self, n, rank):
        p, mu, nu, h = _cone_instance(n, rank)
        path = dk.cone_perturbed_path(mu, nu, h, np.linspace(0.0, 1.0, 41))
        # rounding of lam eps lam grows with the squared norm of the samples
        scale = 1e-14 * n * max(np.linalg.norm(nu.mat, 2), np.linalg.norm(mu.mat, 2)) ** 2
        assert np.abs(path[0] - nu.mat).max() <= scale
        assert np.abs(path[-1] - mu.mat).max() <= scale
        assert np.abs(path @ p.eps @ path - p.eps).max() <= scale
        assert np.abs(path - la.adj(path)).max() == 0.0
        assert np.linalg.eigvalsh(path).min() > 0.0

    @pytest.mark.parametrize("n, rank", _kernel_cases())
    def test_block_diagonal_perturbation_gives_the_geodesic(self, n, rank):
        p, mu, nu, h = _cone_instance(n, rank)
        ts = np.linspace(0.0, 1.0, 41)
        geo = dk.eps_geodesic_samples(mu, nu, ts)
        for block_diagonal in (p.mat @ h @ p.mat + p.comp @ h @ p.comp, 0 * h):
            path = dk.cone_perturbed_path(mu, nu, block_diagonal, ts)
            assert np.abs(path - geo).max() <= 1e-12 * np.abs(geo).max()

    @pytest.mark.parametrize("n, rank", _kernel_cases())
    def test_steps_match_inverse_square_root_oracle(self, n, rank):
        _, mu, nu, h = _cone_instance(n, rank)
        ts = np.linspace(0.0, 1.0, 41)
        for stack in (dk.eps_geodesic_samples(mu, nu, ts), dk.cone_perturbed_path(mu, nu, h, ts)):
            steps, oracle = dk.cone_polyline_steps(stack), _oracle_steps(stack)
            assert steps.shape == oracle.shape == (len(ts) - 1,)
            assert np.abs(steps - oracle).max() <= 1e-12 * oracle.max() + 1e-14

    @pytest.mark.parametrize("n", [2, 5, 16])
    def test_steps_of_commuting_matrices(self, n):
        # off the cone, the spectrum of a step is not closed under inversion:
        # the log-eigenvalues move by -0.3 on one axis and by 0.1 on the
        # others, then back, so both the largest and the smallest
        # eigenvalue of a step decide its length once
        rng = np.random.default_rng(n)
        u = la.random_unitary(n, rng)
        move = np.full(n, 0.1)
        move[0] = -0.3
        start = rng.uniform(-1.0, 1.0, size=n)
        logs = np.stack([start, start + move, start])
        lams = (u * np.exp(logs)[:, None, :]) @ u.conj().T
        np.testing.assert_allclose(dk.cone_polyline_steps(lams), [0.3, 0.3], rtol=1e-12)

    @pytest.mark.parametrize("n, rank", _kernel_cases())
    def test_geodesic_polyline_equals_cone_distance(self, n, rank):
        _, mu, nu, _ = _cone_instance(n, rank)
        length = dk.cone_polyline_length(dk.eps_geodesic_samples(mu, nu, np.linspace(0, 1, 41)))
        dist = dk.d_cone(mu, nu)
        assert abs(length - dist) <= 1e-11 * dist + 1e-14


class TestMovedBasisKernel:
    """The kernel shared with the Grassmann geodesics, with cosh/sinhc:
    for an off-diagonal Hermitian ``Y`` with small-side corner ``y``,
    ``C = Bs cosh|a| + Bb a sinhc|a|`` with ``a = y/2`` is the small side
    moved by ``exp(Y/2)``, and ``exp(Y) = 2 C C* - eps_s``."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8, 16, 64])
    def test_exponential_from_moved_small_side(self, n):
        for rank in range(n + 1):
            p = pj.random_projection(n, rank, 10 * n + rank)
            x = mo.random_hp_vector(p, np.random.default_rng(rank), 1.5)
            y = x.mat + x.mat.conj().T
            small, big, flipped = gr._side_blocks(p)
            a = la.adj(big) @ y @ small / 2
            cosh, sinhc = gr._generator_blocks(a, *dk._COSH_SINHC)
            c = small @ cosh + big @ (a @ sinhc)
            eps_s = -p.eps if flipped else p.eps
            ref = la.expm(y)
            assert np.abs(2 * c @ la.adj(c) - eps_s - ref).max() <= 1e-14 * n * np.abs(ref).max()

    @pytest.mark.parametrize("n, rank", [(2, 1), (4, 1), (5, 3), (8, 4), (16, 12)])
    def test_perturbed_path_against_exponential(self, n, rank):
        p, mu, nu, h = _cone_instance(n, rank)
        ts = np.array([-0.5, 0.0, 0.3, 0.7, 1.0, 1.5])
        ell = la.log_posdef(la.herm(nu.inv_sqrt @ mu.mat @ nu.inv_sqrt))
        off = p.mat @ h @ p.comp + p.comp @ h @ p.mat
        path = dk.cone_perturbed_path(mu, nu, h, ts)
        for t, sample in zip(ts, path):
            ref = nu.sqrt @ la.expm(t * ell + t * (1 - t) * off) @ nu.sqrt
            assert np.abs(sample - ref).max() <= 1e-13 * np.abs(ref).max()


class TestGeodesicDiskPoints:
    """The disk points of a cone geodesic, taken in one stacked step, against
    the per-sample route through the checked cone element of each sample."""

    @pytest.mark.parametrize("n, rank", [(n, r) for n in range(2, 9) for r in range(n + 1)]
                             + [(16, r) for r in (0, 1, 4, 8, 12, 15, 16)])
    def test_matches_per_sample_route(self, n, rank):
        p, mu, nu, _ = _cone_instance(n, rank)
        ts = np.concatenate([[-0.5], np.linspace(0.0, 1.0, 9), [1.5]])
        points = dk._eps_geodesic_points(mu, nu, ts)
        assert points.shape == (len(ts), n, n)
        for lam, point in zip(dk.eps_geodesic_samples(mu, nu, ts), points):
            ref = dk.cone_to_disk(dk.PositiveEpsUnitary(lam, p)).point.range.mat
            assert np.abs(point - ref).max() <= 1e-13


def _rim_pair(n, rank, proj_seed, seed, radius):
    """The disk center and the disk point at chart radius ``radius``."""
    p = pj.random_projection(n, rank, proj_seed)
    m = dk.to_disk_point(mo.chart(mo.random_hp_vector(p, np.random.default_rng(seed), radius)))
    return m, dk.base_disk_point(p)


class TestRelativeSpectrum:
    """Near the rim the bottom of the computed spectrum of
    ``nu^{-1/2} mu nu^{-1/2}`` is lost to rounding, even to negative values.
    Every cone route reads only its top k eigenpairs, with k the dimension
    of the small side: ``d_cone`` the largest eigenvalue, the corner and the
    samplers the top k."""

    @pytest.mark.parametrize("proj_seed, seed, radius", [(2, 2, 1 - 1e-6), (2, 2, 1 - 1e-8),
                                                         (7, 0, 1 - 2e-9)],
                             ids=["1-1e-6", "1-1e-8", "1-2e-9"])
    def test_cone_distance_near_rim(self, proj_seed, seed, radius):
        # the spectrum is closed under w -> 1/w, so the distance is log of
        # its largest eigenvalue; reading the smallest too, about e^-sigma
        # and lost to rounding, was off by up to 4.9e-3 relative here, or
        # raised NotPositive at 1 - 2e-9
        m, center = _rim_pair(6, 3, proj_seed, seed, radius)
        double = 2 * dk.d_non_euclidean(m, center)
        for pair in ((m, center), (center, m)):
            assert abs(dk.d_cone(*pair) - double) <= 1e-13 * double

    def test_not_positive_near_rim(self):
        # the preimage of a point at chart radius 1 - 2e-9, with its
        # smallest eigenvalue (about 1e-9) replaced by -1: far beyond the
        # eigensolvers' rounding noise of about ||mu|| eps = 2e-7, but the
        # top half that the cone routes read never sees it.  The corner
        # stays within that noise of the unplanted element's and of the
        # exact corner of L / 2 = (x + x*) / 2, and the samples end at the
        # unplanted element
        p = pj.random_projection(6, 3, 7)
        m = mo.chart(mo.random_hp_vector(p, np.random.default_rng(0), 1 - 2e-9))
        assert dk.in_disk(m)
        lam, base = dk.to_disk_point(m).lam, dk.base_disk_point(p).lam
        w = lam._w.copy()
        w[np.argmin(w)] = -1.0
        mu = dk._cone_element(lam._v, w, lam.xparam)
        noise = np.linalg.norm(lam.mat, 2) * np.finfo(float).eps
        small, big, _ = gr._side_blocks(p)
        x = lam.xparam.mat
        exact = la.adj(big) @ (x + la.adj(x)) @ small / 2
        corner, planted = (dk._cone_corners(cone, base, [])[0] for cone in (lam, mu))
        assert np.abs(planted - corner).max() <= noise
        assert np.abs(planted - exact).max() <= noise
        samples = dk.eps_geodesic_samples(mu, base, [0.0, 0.5, 1.0])
        assert np.isfinite(samples).all()
        assert np.abs(samples[-1] - lam.mat).max() <= 1e-15 * np.abs(lam.mat).max()
        points = dk._eps_geodesic_points(mu, base, [0.0, 0.5, 1.0])
        assert np.isfinite(points).all()
        assert np.abs(points[-1] - m.range.mat).max() <= noise

    @pytest.mark.parametrize("n, rank, proj_seed, seed, radius, tol",
                             [(6, 3, 2, 2, 1 - 1e-6, 1e-8), (6, 3, 2, 2, 1 - 1e-8, 1e-8),
                              (6, 3, 7, 0, 1 - 2e-9, 1e-8), (8, 2, 3, 1, 1 - 1e-7, 1e-8),
                              (16, 4, 4, 3, 1 - 1e-8, 1e-8), (5, 2, 5, 5, 0.5, 1e-14),
                              (6, 3, 2, 2, 0.5, 1e-14), (16, 4, 4, 3, 0.5, 1e-14)],
                             ids=["6-3-1e-6", "6-3-1e-8", "6-3-2e-9", "8-2-1e-7", "16-4-1e-8",
                                  "5-2-half", "6-3-half", "16-4-half"])
    def test_cone_path_steps_near_rim(self, n, rank, proj_seed, seed, radius, tol):
        # the 2000-sample totals of the step kernel against twice the
        # non-Euclidean distance, in both orders.  With the corner from the
        # whole spectrum they missed by up to 8.4e-2 or raised NotPositive
        # near the rim; what is left there, up to 3.9e-9, is the kernel's
        # own cancellation.  At radius 0.5 only rounding is left
        m, center = _rim_pair(n, rank, proj_seed, seed, radius)
        double = 2 * dk.d_non_euclidean(m, center)
        for a, b in ((m, center), (center, m)):
            [steps] = dk._cone_path_steps(a.lam, b.lam, [], 2000)
            assert abs(steps.sum() - double) <= tol * double

    @pytest.mark.parametrize("n, rank, corner_rank", [(6, 3, 0), (6, 3, 1), (6, 3, 2), (7, 3, 1),
                                                      (7, 4, 2), (8, 4, 1), (16, 4, 3)])
    def test_rank_deficient_corner(self, n, rank, corner_rank):
        # fewer than k eigenvalues exceed 1: the top k pairs then hold
        # eigenvalues 1, whose log is rounding, and no branch is needed.
        # mu = exp(X) and nu = exp(-X / 2) commute, so the relative matrix
        # is exp(3X / 2) with the rank of x
        p = pj.random_projection(n, rank, n + rank)
        rng = np.random.default_rng(corner_rank)
        small, big, _ = gr._side_blocks(p)
        left = big @ la.random_unitary(big.shape[1], rng)[:, :corner_rank]
        right = small @ la.random_unitary(small.shape[1], rng)[:, :corner_rank]
        x = left @ np.diag(rng.uniform(0.5, 1.5, corner_rank)) @ la.adj(right)
        x = np.ascontiguousarray(x if p.rank == small.shape[1] else la.adj(x))
        big_x = x + la.adj(x)
        mu = dk.PositiveEpsUnitary.from_xparam(mo.HpVector(x, p))
        nu = dk.PositiveEpsUnitary.from_xparam(mo.HpVector(-x / 2, p))
        corner, _ = dk._cone_corners(mu, nu, [])
        assert np.abs(corner - 3 / 4 * la.adj(big) @ big_x @ small).max() <= 1e-14
        ts = np.array([-0.5, 0.0, 0.3, 1.0, 1.5])
        samples = dk.eps_geodesic_samples(mu, nu, ts)
        points = dk._eps_geodesic_points(mu, nu, ts)
        for t, sample, point in zip(ts, samples, points):
            ref = la.expm((1.5 * t - 0.5) * big_x)
            assert np.abs(sample - ref).max() <= 1e-14 * np.abs(ref).max()
            ref = dk.cone_to_disk(dk.PositiveEpsUnitary(ref, p)).point.range.mat
            assert np.abs(point - ref).max() <= 1e-14


class TestConeCurveInputs:
    """The cone curve functions check their inputs where they enter."""

    def test_geodesic_samples_dimension_mismatch(self):
        mu = dk.random_pos_eps_unitary(pj.random_projection(4, 2, 1), 1.0, 2)
        five = dk.random_pos_eps_unitary(pj.random_projection(5, 2, 1), 1.0, 3)
        with pytest.raises(InvalidInput):
            dk.eps_geodesic_samples(mu, five, [0.0, 0.5])

    def test_perturbed_path_dimension_mismatch(self):
        mu = dk.random_pos_eps_unitary(pj.random_projection(4, 2, 1), 1.0, 2)
        five = dk.random_pos_eps_unitary(pj.random_projection(5, 2, 1), 1.0, 3)
        with pytest.raises(InvalidInput):
            dk.cone_perturbed_path(mu, five, np.zeros((4, 4)), [0.0, 0.5])

    def test_perturbed_path_context_mismatch(self):
        mu = dk.random_pos_eps_unitary(pj.random_projection(4, 2, 1), 1.0, 2)
        nu = dk.random_pos_eps_unitary(pj.random_projection(4, 2, 5), 1.0, 3)
        with pytest.raises(InvalidInput):
            dk.cone_perturbed_path(mu, nu, np.zeros((4, 4)), [0.0, 0.5])

    def test_perturbation_of_wrong_shape(self):
        p = pj.random_projection(4, 2, 1)
        mu, nu = dk.random_pos_eps_unitary(p, 1.0, 2), dk.random_pos_eps_unitary(p, 1.0, 3)
        with pytest.raises(InvalidInput):
            dk.cone_perturbed_path(mu, nu, np.zeros((3, 3)), [0.0, 0.5])

    @pytest.mark.parametrize("ts", [0.5, [[0.1, 0.2]], [np.nan], [np.inf]],
                             ids=["scalar", "grid", "nan", "inf"])
    @pytest.mark.parametrize("curve", ["eps_geodesic_samples", "cone_perturbed_path"])
    def test_sample_times_not_finite_1d(self, curve, ts):
        p = pj.random_projection(4, 2, 1)
        mu, nu = dk.random_pos_eps_unitary(p, 1.0, 2), dk.random_pos_eps_unitary(p, 0.5, 3)
        args = (mu, nu) if curve == "eps_geodesic_samples" else (mu, nu, np.zeros((4, 4)))
        with pytest.raises(InvalidInput):
            getattr(dk, curve)(*args, ts)

    def test_steps_of_a_single_matrix(self):
        with pytest.raises(InvalidInput):
            dk.cone_polyline_steps(np.eye(3))

    def test_steps_of_a_nan_sample(self):
        lams = np.stack([np.eye(3), np.full((3, 3), np.nan), np.eye(3)]).astype(complex)
        with pytest.raises(InvalidInput):
            dk.cone_polyline_steps(lams)

    def test_steps_of_a_sample_with_negative_eigenvalue(self):
        lams = np.stack([np.eye(3), np.diag([1.0, -0.5, 2.0]), np.eye(3)]).astype(complex)
        with pytest.raises(NotPositive):
            dk.cone_polyline_steps(lams)

    def test_steps_of_a_singular_sample(self):
        lams = np.stack([np.eye(3), np.diag([1.0, 0.0, 2.0]), np.eye(3)]).astype(complex)
        with pytest.raises(NotPositive):
            dk.cone_polyline_steps(lams)


class TestDiskAction:
    def test_identity_action(self):
        p = pj.random_projection(4, 2, 2)
        m = dk.cone_to_disk(dk.random_pos_eps_unitary(p, 1.0, 1))
        out = dk.eps_action(np.eye(4), m)
        assert pj.class_equal(out.point, m.point)

    def test_commuting_unitary_fixes_base(self, rng):
        p = pj.random_projection(5, 2, 3)
        base = dk.base_disk_point(p)
        out = dk.eps_action(commuting_unitary(p, rng), base)
        assert pj.class_equal(out.point, base.point)

    def test_matches_left_multiplication_route(self, rng):
        p = pj.random_projection(5, 2, 3)
        m = dk.cone_to_disk(dk.random_pos_eps_unitary(p, 1.0, 9))
        u = dk.random_eps_unitary(p, rng)
        moved = dk.eps_action(u, m)
        direct = pj.classify(u.mat @ m.lam.sqrt @ p.mat, p)
        assert pj.class_equal(moved.point, direct)

    def test_group_law(self, rng):
        p = pj.random_projection(5, 2, 3)
        m = dk.cone_to_disk(dk.random_pos_eps_unitary(p, 0.8, 9))
        u = dk.random_eps_unitary(p, rng)
        v = dk.random_eps_unitary(p, rng)
        lhs = dk.eps_action(u.mat @ v.mat, m)
        rhs = dk.eps_action(u, dk.eps_action(v, m))
        assert pj.class_equal(lhs.point, rhs.point)
        assert np.abs(lhs.lam.mat - rhs.lam.mat).max() < 1e-8

    def test_metrics_invariant(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 9))
            p = pj.random_projection(n, int(rng.integers(1, n)), int(rng.integers(2**32)))
            m = dk.cone_to_disk(dk.random_pos_eps_unitary(p, 1.0, int(rng.integers(2**32))))
            k = dk.cone_to_disk(dk.random_pos_eps_unitary(p, 1.0, int(rng.integers(2**32))))
            u = dk.random_eps_unitary(p, rng)
            um, uk = dk.eps_action(u, m), dk.eps_action(u, k)
            for metric in (dk.rho, dk.d_pseudo_chordal, dk.d_non_euclidean, dk.d_cone):
                assert metric(um, uk) == pytest.approx(metric(m, k), abs=1e-8)

    def test_rejects_non_eps_unitary(self, rng):
        p = pj.random_projection(4, 2, 2)
        m = dk.cone_to_disk(dk.random_pos_eps_unitary(p, 1.0, 1))
        with pytest.raises(NotEpsUnitary):
            dk.eps_action(la.random_invertible(4, rng), m)


class TestDiskMembership:
    def test_base_point(self):
        p = pj.random_projection(4, 2, 1)
        assert dk.in_disk(pj.classify(p.mat, p))

    def test_small_angle_inside(self, rng):
        p = pj.random_projection(5, 2, 2)
        q = gr.geodesic(p, gr.random_tangent(p, rng, 0.6), 1.0)
        assert dk.in_disk(pj.point_from_projection(q, p))

    def test_large_angle_outside(self, rng):
        p = pj.random_projection(5, 2, 2)
        q = gr.geodesic(p, gr.random_tangent(p, rng, 0.9), 1.0)
        assert not dk.in_disk(pj.point_from_projection(q, p))

    def test_boundary_margin_outside(self, rng):
        p = pj.random_projection(4, 2, 3)
        q = gr.geodesic(p, gr.random_tangent(p, rng, np.pi / 4 + 1e-3), 1.0)
        assert not dk.in_disk(pj.point_from_projection(q, p))

    @pytest.mark.parametrize("n, rank", [(2, 1), (4, 2), (6, 3), (16, 4)])
    def test_one_threshold(self, n, rank):
        # chart norm 1 - 2e-9 is inside and 1 - 7e-10 is not, for in_disk,
        # disk_to_cone and to_disk_point alike
        p = pj.random_projection(n, rank, n)
        rng = np.random.default_rng(n)
        inside = mo.chart(mo.random_hp_vector(p, rng, 1 - 2e-9))
        sliver = mo.chart(mo.random_hp_vector(p, rng, 1 - 7e-10))
        assert dk.in_disk(inside)
        dk.disk_to_cone(inside)
        dk.to_disk_point(inside)
        assert not dk.in_disk(sliver)
        for fn in (dk.disk_to_cone, dk.to_disk_point):
            with pytest.raises(NotInDisk):
                fn(sliver)

    @pytest.mark.parametrize("sigma", [21.0, 22.0, 30.0, 34.0])
    def test_cone_to_disk_decision(self, sigma):
        # the point of exp(x + x*) has chart norm tanh(||x|| / 2); the
        # threshold 1 - eq_tol lies at ||x|| ~ 21.4.  The checked DiskPoint
        # decides as cone_to_disk does; past the threshold the image
        # [sqrt(lam) p] may have no class at all, and the centre stands in
        for n in range(2, 9):
            for rank in range(n + 1):
                p = pj.random_projection(n, rank, 10 * n + rank)
                x = mo.random_hp_vector(p, np.random.default_rng(1), sigma)
                lam = dk.PositiveEpsUnitary.from_xparam(x)
                try:
                    image = pj.classify(lam.sqrt @ p.mat, p)
                except NotInLp:
                    image = pj.classify(p.mat, p)
                corner = sigma if 0 < rank < n else 0.0
                if np.tanh(corner / 2) >= 1 - la.DEFAULT_TOL.eq_tol:
                    for fn in (dk.cone_to_disk, lambda lam: dk.DiskPoint(image, lam)):
                        with pytest.raises(NotInDisk):
                            fn(lam)
                else:
                    assert dk.in_disk(dk.cone_to_disk(lam).point)
                    assert dk.DiskPoint(image, lam).lam is lam

    @pytest.mark.parametrize("n, rank", [(2, 1), (4, 0), (4, 2), (6, 3), (16, 4), (16, 16)])
    def test_base_point_construction(self, n, rank):
        # the centre is cone_to_disk of the identity, bit for bit the point
        # classify(p) with the identity preimage
        p = pj.random_projection(n, rank, n + rank)
        zero = pj._trusted(mo.HpVector, mat=np.zeros_like(p.mat), context=p)
        lam = dk.PositiveEpsUnitary.from_xparam(zero)
        point = pj.classify(p.mat, p)
        base = dk.base_disk_point(p)
        for got, want in ((base.point.rep.mat, point.rep.mat),
                          (base.point.range.mat, point.range.mat),
                          (base.lam.mat, lam.mat), (base.lam.sqrt, lam.sqrt)):
            assert got.dtype == want.dtype and np.array_equal(got, want)

    def test_characterizations_agree(self, rng):
        for _ in range(60):
            n = int(rng.integers(2, 9))
            p = pj.random_projection(n, int(rng.integers(1, n)), int(rng.integers(2**32)))
            inside = bool(rng.uniform() < 0.5)
            theta = (rng.uniform(1e-3, np.pi / 4 - 1e-3) if inside
                     else rng.uniform(np.pi / 4 + 1e-3, np.pi / 2 - 0.01))
            q = gr.geodesic(p, gr.random_tangent(p, rng, theta), 1.0)
            m = pj.point_from_projection(q, p)
            base = pj.classify(p.mat, p)
            by_chart = dk.in_disk(m)
            by_chordal = gr.d_chordal(m, base) < np.sqrt(2) / 2
            by_spherical = gr.d_spherical(m, base) < np.pi / 4
            assert by_chart == by_chordal == by_spherical == inside

    def test_every_cone_image_is_inside(self, rng):
        p = pj.random_projection(5, 2, 11)
        for seed in range(10):
            m = dk.cone_to_disk(dk.random_pos_eps_unitary(p, 2.0, seed))
            assert dk.in_disk(m.point)


# every rank at n <= 6, and one case at n = 8
RIM_CASES = [(n, k) for n in range(2, 7) for k in range(n + 1)] + [(8, 4)]


class TestRim:
    """Cone elements and disk points near the rim, where the corner norm
    sigma is large.  The absolute eps-unitarity residual of ``exp(x + x*)``
    grows like e^{2 sigma} times the rounding unit, which measures
    conditioning, not a defect; so the elements are judged against the
    exponential in 40-digit arithmetic, relative to its size."""

    @pytest.mark.parametrize("sigma", [8.0, 15.0, 28.0])
    @pytest.mark.parametrize("n, rank", RIM_CASES)
    def test_from_xparam_matches_mpmath(self, n, rank, sigma):
        p = pj.random_projection(n, rank, 100 * n + rank)
        x = mo.random_hp_vector(p, np.random.default_rng(n + rank), sigma)
        big_x = x.mat + x.mat.conj().T
        lam = dk.PositiveEpsUnitary.from_xparam(x)
        assert lam.xparam is x
        for got, exact in ((lam.mat, big_x), (lam.sqrt, big_x / 2), (lam.inv_sqrt, -big_x / 2)):
            ref = mp_expm(exact)
            assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()

    @pytest.mark.parametrize("radius", [0.999, 1 - 1e-6, 1 - 2e-9],
                             ids=["0.999", "1-1e-6", "1-2e-9"])
    @pytest.mark.parametrize("n, rank, seed", [(2, 1, 0), (4, 2, 1), (6, 3, 2), (8, 4, 3)])
    def test_chart_round_trip(self, n, rank, seed, radius):
        # the disk point of the preimage is the point, and its chart
        # coordinate comes back within the rounding of entries of size
        # e^{sigma/2} = sqrt((1 + r)/(1 - r))
        p = pj.random_projection(n, rank, seed)
        x = mo.random_hp_vector(p, np.random.default_rng(seed), radius)
        point = mo.chart(x)
        lam = dk.disk_to_cone(point)
        m = dk.cone_to_disk(lam)
        gate = 10 * np.finfo(float).eps * np.sqrt((1 + radius) / (1 - radius))
        assert np.abs(mo.chart_inv(m.point).mat - x.mat).max() <= gate
        assert gr.d_chordal(m.point, point) <= gate
        disk_point = dk.to_disk_point(point)
        assert disk_point.point is point and np.array_equal(disk_point.lam.mat, lam.mat)


class TestSmallCornerNorm:
    """Cone elements close to the identity, where ``a = sqrt(lam) p`` already
    satisfies ``a*a = p`` within eq_tol and classify keeps it as the
    representative."""

    def test_replay_seed5_double_en(self):
        cfg = verify.RunConfig(seed=5)
        p, m, nn = verify._disk_pair(3, verify._rng(cfg, "double-en", 3, 280), cfg.tol)
        assert m.point.range.rank == p.rank == 2
        assert abs(2 * dk.d_non_euclidean(m, nn) - dk.d_cone(m, nn)) <= 1e-8

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(2, 8),
        rank_frac=st.floats(0.0, 1.0, exclude_max=True),
        proj_seed=st.integers(0, 2**62),
        seed=st.integers(0, 2**62),
        log_norm=st.floats(-6.0, -3.0),
    )
    # the corner of the seed-5 instance above: its norm 5.26e-5 put the
    # trace of the range projection 1.38e-9 off an integer
    @example(n=3, rank_frac=0.5, proj_seed=4005973738698113027,
             seed=2679882285117528164, log_norm=np.log10(5.261770306297375e-05))
    def test_cone_to_disk(self, n, rank_frac, proj_seed, seed, log_norm):
        rank = 1 + int(rank_frac * (n - 1))
        p = pj.random_projection(n, rank, proj_seed)
        rng = np.random.default_rng(seed)
        rng.uniform()  # the magnitude draw of random_pos_eps_unitary
        x = mo.random_hp_vector(p, rng, norm=10.0 ** log_norm)
        lam = dk.PositiveEpsUnitary.from_xparam(x)
        m = dk.cone_to_disk(lam)
        assert m.point.range.rank == rank
        assert np.abs(dk.disk_to_cone(m).mat - lam.mat).max() <= 1e-8
