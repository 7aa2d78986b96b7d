"""Homogeneous symbols, Gauss-map canonical phases, and hypothesis checks.

A degree-1 positively homogeneous symbol ``p`` is stored with analytic
gradient and Hessian callables so that the canonical frequency map

    psi(xi) = p(xi) * grad p(xi) / |grad p(xi)|

and its Jacobian can be evaluated in closed form.  The map sends the level
surface ``{p = 1}`` to the unit sphere along normals; its inverse is a
Newton iteration reduced to the unit sphere by homogeneity.  A symbol that
knows the gradient of its dual norm seeds that iteration with the exact
inverse, ``psi^{-1}(eta) = |eta| grad p^*(eta)``.

Built-in families (Euclidean norm, anisotropic quadratic forms, smooth
directional perturbations) carry exact derivatives; the quadratic forms
also carry their dual-norm gradient.

Callable convention: all symbol/map callables accept stacked vectors of
shape ``(..., n)`` and return shape ``(...)`` (or ``(..., n)`` / ``(..., n, n)``
for gradients / Hessians).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from fiolab.lattice import bracket

__all__ = [
    "HomogeneousSymbol",
    "CanonicalMap",
    "SymbolClassSpec",
    "SymbolClassReport",
    "JacobianReport",
    "MapInversionError",
    "euclidean_symbol",
    "quadratic_form_symbol",
    "perturbed_symbol",
    "identity_map",
    "scaling_map",
    "linear_map",
    "gauss_phase",
    "invert_map_batch",
    "check_jacobian_bound",
    "check_symbol_class",
    "sample_axis",
    "sphere_points",
]


GAUSS_CHECK_SAMPLES = 64  # sphere directions where gauss_phase checks that grad p is not ~0


class MapInversionError(RuntimeError):
    """Newton inversion of a canonical map failed to converge."""


@dataclass(frozen=True)
class HomogeneousSymbol:
    """Positive, degree-1 homogeneous function with derivative access.

    ``dual_gradient``, when set, is the gradient of the dual norm
    ``p^*(eta) = sup {eta . xi : p(xi) <= 1}``.  At a unit ``eta`` it is the
    point of ``{p = 1}`` whose outer normal is ``eta``, i.e. the inverse of
    the Gauss map on the unit sphere; :func:`gauss_phase` seeds Newton with
    it.  For ``p(xi) = sqrt(xi . A xi)`` it is ``A^{-1} eta / sqrt(eta . A^{-1} eta)``.
    """

    dim: int
    evaluate: Callable[[np.ndarray], np.ndarray]
    gradient: Callable[[np.ndarray], np.ndarray]
    hessian: Callable[[np.ndarray], np.ndarray]
    label: str = "symbol"
    dual_gradient: Callable[[np.ndarray], np.ndarray] | None = None


@dataclass(frozen=True)
class CanonicalMap:
    """Homogeneous frequency diffeomorphism with Jacobian access.

    :func:`invert_map_batch` inverts it by a Newton iteration seeded by
    ``newton_seed``, which returns a new array; a seed that is already the
    exact inverse (a linear map's, or a quadratic-form Gauss map's
    ``|eta| grad p^*(eta)``) ends the iteration before its first step.  The
    residual check still gates every point either way.
    The map value at the origin is defined as 0 by the continuity limit.
    """

    dim: int
    forward: Callable[[np.ndarray], np.ndarray]
    jacobian: Callable[[np.ndarray], np.ndarray]
    newton_seed: Callable[[np.ndarray], np.ndarray]
    label: str = "map"


# ---------------------------------------------------------------------------
# built-in symbol families
# ---------------------------------------------------------------------------


def euclidean_symbol(dim: int) -> HomogeneousSymbol:
    """The Euclidean norm ``p(xi) = |xi|``."""
    return replace(quadratic_form_symbol(np.eye(dim)), label="euclidean")


def quadratic_form_symbol(matrix: np.ndarray) -> HomogeneousSymbol:
    """Anisotropic norm ``p(xi) = sqrt(xi . A xi)`` for symmetric positive ``A``."""
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("quadratic form matrix must be square")
    if not np.all(np.isfinite(a)):
        raise ValueError("quadratic form matrix must be finite")
    if not np.allclose(a, a.T):
        raise ValueError("quadratic form matrix must be symmetric")
    # grad and hess assume A^T = A exactly; a near-symmetric input would
    # otherwise give p and grad p of two different forms
    a = 0.5 * (a + a.T)
    eigvals = np.linalg.eigvalsh(a)
    if eigvals[0] <= 0:
        raise ValueError("quadratic form matrix must be positive definite")
    dim = a.shape[0]
    a_inv = np.linalg.inv(a)

    def ev(xi):
        xi = np.asarray(xi, dtype=float)
        return np.sqrt(np.einsum("...i,ij,...j->...", xi, a, xi))

    def grad(xi):
        xi = np.asarray(xi, dtype=float)
        p = ev(xi)[..., np.newaxis]
        return np.einsum("ij,...j->...i", a, xi) / p

    def hess(xi):
        xi = np.asarray(xi, dtype=float)
        p = ev(xi)
        axi = np.einsum("ij,...j->...i", a, xi)
        outer = axi[..., :, np.newaxis] * axi[..., np.newaxis, :]
        return a / p[..., np.newaxis, np.newaxis] - outer / (p**3)[..., np.newaxis, np.newaxis]

    def dual_grad(eta):
        # the dual norm is sqrt(eta . A^{-1} eta)
        eta = np.asarray(eta, dtype=float)
        b = np.einsum("ij,...j->...i", a_inv, eta)
        return b / np.sqrt(np.einsum("...i,...i->...", eta, b))[..., np.newaxis]

    return HomogeneousSymbol(dim, ev, grad, hess, label="quadratic_form", dual_gradient=dual_grad)


def perturbed_symbol(
    base: HomogeneousSymbol, bump_amplitude: float, bump_direction
) -> HomogeneousSymbol:
    """Smooth directional perturbation ``p(xi) = base(xi) + eps (d.xi)^2 / |xi|``.

    The bump is degree-1 homogeneous and smooth away from the origin.  For
    small ``eps`` relative to the base symbol the result stays positive; a
    coarse positivity check on sphere samples rejects wild amplitudes.
    """
    d = np.asarray(bump_direction, dtype=float)
    if d.shape != (base.dim,):
        raise ValueError(f"bump direction must have shape ({base.dim},)")
    length = np.linalg.norm(d)
    if not (np.isfinite(length) and length > 0):
        raise ValueError(f"bump direction must be a nonzero finite vector, got {d.tolist()}")
    d = d / length
    eps = float(bump_amplitude)

    def ev(xi):
        xi = np.asarray(xi, dtype=float)
        r = np.sqrt(np.sum(xi * xi, axis=-1))
        s = np.einsum("...i,i->...", xi, d)
        return base.evaluate(xi) + eps * s * s / r

    def grad(xi):
        xi = np.asarray(xi, dtype=float)
        r = np.sqrt(np.sum(xi * xi, axis=-1))
        s = np.einsum("...i,i->...", xi, d)
        term = 2.0 * s[..., np.newaxis] * d / r[..., np.newaxis]
        term = term - (s * s / r**3)[..., np.newaxis] * xi
        return base.gradient(xi) + eps * term

    def hess(xi):
        xi = np.asarray(xi, dtype=float)
        r = np.sqrt(np.sum(xi * xi, axis=-1))
        s = np.einsum("...i,i->...", xi, d)
        r = r[..., np.newaxis, np.newaxis]
        s = s[..., np.newaxis, np.newaxis]
        dd = d[:, np.newaxis] * d[np.newaxis, :]
        dx = d[:, np.newaxis] * xi[..., np.newaxis, :] + xi[..., :, np.newaxis] * d[np.newaxis, :]
        xx = xi[..., :, np.newaxis] * xi[..., np.newaxis, :]
        eye = np.eye(base.dim)
        term = 2.0 * dd / r - 2.0 * s * dx / r**3 - s * s * eye / r**3 + 3.0 * s * s * xx / r**5
        return base.hessian(xi) + eps * term

    sym = HomogeneousSymbol(base.dim, ev, grad, hess, label=f"perturbed({base.label})")
    samples = sphere_points(base.dim, 64)
    if not np.min(sym.evaluate(samples)) > 0:  # a NaN fails too
        raise ValueError("perturbation amplitude destroys positivity of the symbol")
    if not np.isfinite(eps):  # +inf keeps the samples positive
        raise ValueError(f"bump amplitude must be finite, got {eps}")
    return sym


# ---------------------------------------------------------------------------
# canonical maps
# ---------------------------------------------------------------------------


def identity_map(dim: int) -> CanonicalMap:
    return linear_map(np.eye(dim), label="identity")


def scaling_map(c: float, dim: int) -> CanonicalMap:
    if c <= 0:
        raise ValueError("scaling factor must be positive")
    return linear_map(c * np.eye(dim), label=f"scaling({c})")


def linear_map(matrix: np.ndarray, label: str = "linear") -> CanonicalMap:
    """Map ``xi -> A xi`` for an invertible matrix (rotations, dilations)."""
    a = np.asarray(matrix, dtype=float)
    dim = a.shape[0]
    a_inv = np.linalg.inv(a)

    def fwd(xi):
        return np.einsum("ij,...j->...i", a, np.asarray(xi, dtype=float))

    def inv(xi):
        # as Newton's seed the exact inverse ends the iteration before its first step
        return np.einsum("ij,...j->...i", a_inv, np.asarray(xi, dtype=float))

    def jac(xi):
        xi = np.asarray(xi, dtype=float)
        return np.broadcast_to(a, xi.shape[:-1] + (dim, dim)).copy()

    return CanonicalMap(dim, fwd, jac, newton_seed=inv, label=label)


def gauss_phase(p: HomogeneousSymbol) -> CanonicalMap:
    """Canonical map ``psi(xi) = p(xi) grad p(xi) / |grad p(xi)|``.

    The Jacobian is assembled analytically from the symbol's gradient and
    Hessian.  Construction fails if the gradient degenerates on sampled
    directions of the unit sphere.  Newton's seed is the exact inverse
    ``grad p^*(eta)`` at a unit ``eta`` when the symbol carries
    ``dual_gradient``, and the radial projection ``eta / p(eta)`` onto
    ``{p = 1}`` otherwise.
    """
    dim = p.dim
    samples = sphere_points(dim, GAUSS_CHECK_SAMPLES)
    gnorms = np.linalg.norm(p.gradient(samples), axis=-1)
    if np.min(gnorms) < 1e-8:
        worst = samples[int(np.argmin(gnorms))]
        raise ValueError(
            f"gradient of symbol '{p.label}' degenerates (|grad p| = {np.min(gnorms):.3e} "
            f"at direction {worst.tolist()})"
        )

    def fwd(xi):
        xi = np.asarray(xi, dtype=float)
        g = p.gradient(xi)
        gn = np.linalg.norm(g, axis=-1)[..., np.newaxis]
        return p.evaluate(xi)[..., np.newaxis] * g / gn

    def jac(xi):
        # d(p u)/dxi = u grad p^T + p (I - u u^T) H / |grad p|,  u = grad p/|grad p|
        xi = np.asarray(xi, dtype=float)
        g = p.gradient(xi)
        h = p.hessian(xi)
        gn = np.linalg.norm(g, axis=-1)
        u = g / gn[..., np.newaxis]
        proj = np.eye(dim) - u[..., :, np.newaxis] * u[..., np.newaxis, :]
        term1 = u[..., :, np.newaxis] * g[..., np.newaxis, :]
        term2 = (
            p.evaluate(xi)[..., np.newaxis, np.newaxis]
            * np.einsum("...ik,...kj->...ij", proj, h)
            / gn[..., np.newaxis, np.newaxis]
        )
        return term1 + term2

    def seed(direction):
        direction = np.asarray(direction, dtype=float)
        return direction / p.evaluate(direction)[..., np.newaxis]

    return CanonicalMap(
        dim, fwd, jac, newton_seed=p.dual_gradient or seed, label=f"gauss({p.label})"
    )


def invert_map_batch(
    m: CanonicalMap, eta: np.ndarray, tol: float = 1e-10, max_iter: int = 60
) -> np.ndarray:
    """Vectorized inverse of a canonical map at stacked points (M, n).

    Homogeneity reduces the problem to the unit sphere:
    ``psi^{-1}(eta) = |eta| psi^{-1}(eta/|eta|)``.  Zero rows map to zero
    (continuity convention).  Every point must end with
    ``|psi(xi) - eta/|eta|| <= tol``, an exact seed included (a quadratic
    form's dual-norm gradient lands within about 1e-15 and takes no step);
    otherwise this raises :class:`MapInversionError` naming the worst
    direction.
    """
    eta = np.asarray(eta, dtype=float)
    out = np.zeros_like(eta)
    mags = np.linalg.norm(eta, axis=-1)
    active = mags > 0
    if not np.any(active):
        return out
    direction = eta[active] / mags[active][..., np.newaxis]

    xi = m.newton_seed(direction)
    residual = m.forward(xi) - direction
    for _ in range(max_iter):
        err = np.linalg.norm(residual, axis=-1)
        todo = err > tol
        if not np.any(todo):
            break
        jac = m.jacobian(xi[todo])
        step = np.linalg.solve(jac, residual[todo][..., np.newaxis])[..., 0]
        xi[todo] = xi[todo] - step
        residual[todo] = m.forward(xi[todo]) - direction[todo]
    err = np.linalg.norm(residual, axis=-1)
    if np.any(err > tol):
        worst = int(np.argmax(err))
        raise MapInversionError(
            f"inversion of map '{m.label}' did not converge after {max_iter} iterations "
            f"(residual {err[worst]:.3e} at direction {direction[worst].tolist()})"
        )
    out[active] = xi * mags[active][..., np.newaxis]
    return out


# ---------------------------------------------------------------------------
# hypothesis checks
# ---------------------------------------------------------------------------


def sphere_points(dim: int, count: int) -> np.ndarray:
    """Deterministic quasi-uniform directions on the unit sphere, shape (M, n).

    dim 1 uses {-1, +1}; dim 2 uniform angles; dim 3 a Fibonacci lattice;
    higher dimensions fall back to seeded normalized Gaussians (deterministic
    for a given count).
    """
    if count < 1:
        raise ValueError("sample count must be >= 1")
    if dim == 1:
        pts = np.array([[1.0], [-1.0]])
        return pts[:count]
    if dim == 2:
        theta = 2.0 * np.pi * np.arange(count) / count
        return np.stack([np.cos(theta), np.sin(theta)], axis=-1)
    if dim == 3:
        i = np.arange(count)
        z = 1.0 - (2.0 * i + 1.0) / count
        golden = np.pi * (3.0 - np.sqrt(5.0))
        phi = golden * i
        rho = np.sqrt(np.maximum(1.0 - z * z, 0.0))
        return np.stack([rho * np.cos(phi), rho * np.sin(phi), z], axis=-1)
    rng = np.random.default_rng(count)
    pts = rng.standard_normal((count, dim))
    return pts / np.linalg.norm(pts, axis=-1, keepdims=True)


@dataclass(frozen=True)
class JacobianReport:
    min_abs_det: float
    argmin_direction: tuple
    samples: int
    max_abs_det: float


def check_jacobian_bound(m: CanonicalMap, directions: int) -> JacobianReport:
    """Minimum and maximum ``|det d psi|`` over sampled unit-sphere directions.

    Degree-1 homogeneity of the map makes the Jacobian determinant
    homogeneous of degree 0, so sphere sampling covers all scales.
    """
    pts = sphere_points(m.dim, directions)
    dets = np.abs(np.linalg.det(m.jacobian(pts)))
    k = int(np.argmin(dets))
    return JacobianReport(
        min_abs_det=float(dets[k]),
        argmin_direction=tuple(pts[k].tolist()),
        samples=pts.shape[0],
        max_abs_det=float(np.max(dets)),
    )


# ---------------------------------------------------------------------------
# symbol class verification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SymbolClassSpec:
    """Finite verification order and tolerance for a symbol class check.

    ``class_kind`` is ``"S00"`` (all mixed derivatives bounded by the
    tolerance) or ``"SG"`` with ``weight_orders = (m1, m2)``, where the
    derivative of orders (beta, gamma) is measured against the weight
    ``<y>^(m1-|beta|) <xi>^(m2-|gamma|)``.
    """

    class_kind: str
    max_order: int
    bound_tolerance: float
    weight_orders: tuple | None = None

    def __post_init__(self):
        if self.class_kind not in ("S00", "SG"):
            raise ValueError(f"unknown symbol class kind {self.class_kind!r}")
        if self.max_order < 1:
            raise ValueError("max_order must be >= 1")
        if self.bound_tolerance <= 0:
            raise ValueError("bound_tolerance must be positive")
        if self.class_kind == "SG" and self.weight_orders is None:
            raise ValueError("SG class requires weight_orders (m1, m2)")

    @property
    def min_points(self) -> int:
        """Points per sampling axis that central stencils up to ``max_order`` need."""
        return 2 * self.max_order + 3


@dataclass(frozen=True)
class SymbolClassReport:
    passes: bool
    worst_constant: float
    worst_orders: tuple  # (alpha, beta) multi-indices over x and xi axes
    worst_point: tuple  # (x, xi) coordinates
    max_order: int
    x_spacing: float
    xi_spacing: float


def sample_axis(half_width: float, points: int) -> np.ndarray:
    """``points`` equispaced samples of ``[-half_width, half_width]``."""
    if not np.isfinite(2.0 * half_width):
        raise ValueError(f"sampling width 2 * {half_width} is not finite")
    return np.linspace(-half_width, half_width, points)


def check_symbol_class(
    a: Callable[[np.ndarray, np.ndarray], np.ndarray],
    spec: SymbolClassSpec,
    dim: int,
    x_half_width: float,
    xi_half_width: float,
    x_points: int,
    xi_points: int,
) -> SymbolClassReport:
    """Estimate mixed derivative bounds of an amplitude ``a(x, xi)``.

    The amplitude is sampled on a tensor grid over
    ``[-x_half_width, x_half_width]^n x [-xi_half_width, xi_half_width]^n``
    and every mixed derivative up to total order ``spec.max_order`` is
    estimated from the samples by iterated central differences, along the x
    axes first and then the xi axes; the supremum of ``|derivative| / weight``
    over interior samples is the reported worst constant; an SG weight or a
    ratio that is not finite raises ``ValueError`` naming the orders, as a
    non-finite amplitude sample does.  Passing means the
    worst constant stays at or below the tolerance.  The check is monotone in
    the order: higher orders only add multi-indices.  Orders (alpha, beta)
    are visited by |alpha| + |beta|, then |alpha|, then lexically, and the
    first one visited wins a tie.
    """
    r = spec.max_order
    if min(x_points, xi_points) < spec.min_points:
        raise ValueError(
            f"grid too coarse for derivative order {r}: need at least {spec.min_points} "
            f"points per axis, got ({x_points}, {xi_points})"
        )
    x_axis = sample_axis(x_half_width, x_points)
    xi_axis = sample_axis(xi_half_width, xi_points)
    hx = x_axis[1] - x_axis[0]
    hxi = xi_axis[1] - xi_axis[0]

    axes = np.meshgrid(*([x_axis] * dim + [xi_axis] * dim), indexing="ij", sparse=True)
    x = np.stack(np.broadcast_arrays(*axes[:dim]), axis=-1)
    xi = np.stack(np.broadcast_arrays(*axes[dim:]), axis=-1)
    values = np.asarray(a(*np.broadcast_arrays(x, xi)), dtype=np.complex128)
    if not np.all(np.isfinite(values)):
        # a NaN sample fails every comparison below and would pass silently
        raise ValueError("amplitude is not finite at every sample point")

    bx = bracket(x)
    bxi = bracket(xi)
    spacings = (hx,) * dim + (hxi,) * dim

    # interior window: trim r layers per axis so iterated central stencils
    # never touch one-sided boundary values
    interior = tuple([slice(r, -r)] * (2 * dim))

    # (alpha, beta) as one tuple over the x axes, then the xi axes
    orders = sorted(
        (o for o in itertools.product(range(r + 1), repeat=2 * dim) if sum(o) <= r),
        key=lambda o: (sum(o), sum(o[:dim]), o),
    )
    worst = -1.0
    worst_orders = ((0,) * dim, (0,) * dim)
    worst_idx = (0,) * (2 * dim)
    for o in orders:
        deriv = values
        for axis, order in enumerate(o):
            for _ in range(order):
                deriv = np.gradient(deriv, spacings[axis], axis=axis, edge_order=2)
        weight = 1.0
        with np.errstate(all="ignore"):
            if spec.class_kind == "SG":
                m1, m2 = spec.weight_orders
                weight = bx ** (m1 - sum(o[:dim])) * bxi ** (m2 - sum(o[dim:]))
            ratio = (np.abs(deriv) / weight)[interior]
        if not (np.all(np.isfinite(weight)) and np.all(np.isfinite(ratio))):
            # an infinite weight gives a ratio of 0, a NaN one fails every comparison
            raise ValueError(f"weight or derivative ratio is not finite at orders "
                             f"(alpha, beta) = {(o[:dim], o[dim:])}")
        k = int(np.argmax(ratio))
        val = float(ratio.flat[k])
        if val > worst:
            worst = val
            worst_orders = (o[:dim], o[dim:])
            worst_idx = np.unravel_index(k, ratio.shape)
    x_pt = tuple(float(x_axis[i + r]) for i in worst_idx[:dim])
    xi_pt = tuple(float(xi_axis[i + r]) for i in worst_idx[dim:])
    return SymbolClassReport(
        passes=bool(worst <= spec.bound_tolerance),
        worst_constant=worst,
        worst_orders=worst_orders,
        worst_point=(x_pt, xi_pt),
        max_order=r,
        x_spacing=float(hx),
        xi_spacing=float(hxi),
    )
