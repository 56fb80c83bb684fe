"""Projective spaces of matrix algebras with their metric geometry.

The package realizes the projective space attached to a fixed projection
``p`` in a complex matrix algebra: canonical class representatives, the
chordal/spherical metrics with their geodesics, the affine chart with its
Moebius maps and transitions, and the hyperbolic disk of positive
eps-unitaries with the pseudo-chordal, non-Euclidean and cone metrics.

The property registry, :mod:`grassgeo.verify` with ``Report``,
``RunConfig`` and ``run_all``, loads on first use of any of these names;
importing the package, or running any ``grassgeo`` command but
``verify``, never imports it.
"""

from importlib import import_module as _import_module

from .errors import (
    BranchCut,
    DomainError,
    GrassgeoError,
    InvalidCurve,
    InvalidInput,
    InvalidTangent,
    NotEpsUnitary,
    NotFinitePoint,
    NotHermitian,
    NotInDisk,
    NotInLp,
    NotInvertible,
    NotPositive,
    OutOfRange,
    OutsideDomain,
    ResidualError,
)
from .linalg import (
    DEFAULT_TOL,
    HermitianEig,
    Tolerance,
    expm,
    func_calc,
    hermitian_eig,
    log_posdef,
    log_unitary,
    op_norm,
    polar,
    sqrt_posdef,
    svd_range_projection,
)
from .projective import (
    PartialIsometry,
    Projection,
    ProjectivePoint,
    class_equal,
    classify,
    in_lp,
    point_from_projection,
    random_point_near,
    random_projection,
    unitary_extension,
)
from .grassmann import (
    Curve,
    TangentVector,
    curve_length,
    d_chordal,
    d_spherical,
    geodesic,
    geodesic_curve,
    geodesic_log,
    perturbed_curve,
    projectivity,
    random_tangent,
    tangent_path_lengths,
)
from .moebius import (
    HpVector,
    MoebiusMap,
    chart,
    chart_inv,
    chart_transition,
    d_chart,
    moebius_apply,
    moebius_domain,
    random_hp_vector,
)
from .disk import (
    DiskPoint,
    EpsSymmetry,
    EpsUnitary,
    PositiveEpsUnitary,
    base_disk_point,
    cone_to_disk,
    d_cone,
    d_non_euclidean,
    d_pseudo_chordal,
    disk_to_cone,
    eps_action,
    eps_geodesic,
    in_disk,
    is_eps_unitary,
    random_pos_eps_unitary,
    rho,
    to_disk_point,
)

__version__ = "0.1.0"

_LAZY = ("verify", "Report", "RunConfig", "run_all")

__all__ = [name for name in globals() if not name.startswith("_")] + list(_LAZY)


def __getattr__(name):
    # resolved on every access, never bound here: the benchmark's tracer
    # wraps and restores names in the package namespace, and a binding
    # made here would keep a stale wrapper
    if name in _LAZY:
        verify = _import_module(".verify", __name__)
        return verify if name == "verify" else getattr(verify, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
