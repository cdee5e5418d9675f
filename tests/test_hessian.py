"""Induced norms on R^n: frame formulas, curvature, indicatrix operators."""

import math

import numpy as np
import pytest

from isonorm import hessian
from isonorm.fd import gradient_fd, hessian_fd, third_tensor_fd
from isonorm.foliation import (_sphere_tangent_basis, cartan3, d1, d2,
                               random_leaf_points, shape_spectrum, t_coord,
                               unit_w)
from isonorm.hessian import (InducedNorm, cartan_flat_candidate,
                             closed_frame_matrix, energy, fd_fundamental_tensor,
                             fd_indicatrix_grad_t_norm,
                             fd_indicatrix_laplacian_t, frame_basis,
                             frame_components, grad_energy,
                             indicatrix_grad_t_norm, indicatrix_laplacian_t,
                             riemann_fd, value)
from isonorm.planar import DualProfile
from isonorm.profile import Profile, round_profile

ELLIPSE_D2 = Profile(2, (1.0, 0.2))
ELLIPSE_D1 = Profile(1, (1.0, 0.0, 0.2))  # same f(t) = 1 + 0.2 cos 2t
RANDERS = Profile(1, (0.5225, 0.3, 0.0225))  # (1 + 0.3 cos t)^2 / 2


def _norm(model, profile):
    return InducedNorm(model, profile)


# ------------------------------------------------------------------ value

def test_value_on_axis():
    nm = _norm(d2(4, 2), ELLIPSE_D2)
    x = np.zeros(4); x[0] = 1.0  # t = 0 there
    assert value(nm, x) == pytest.approx(math.sqrt(2.4), abs=1e-12)


def test_value_homogeneous():
    nm = _norm(cartan3(), Profile(3, (0.5, 0.02)))
    x = random_leaf_points(nm.foliation, 0.4, 1, seed=1)[0]
    assert value(nm, 3.0 * x) == pytest.approx(3.0 * value(nm, x), abs=1e-12)


def test_profile_model_d_mismatch():
    with pytest.raises(ValueError):
        InducedNorm(cartan3(), ELLIPSE_D2)


def test_grad_energy_matches_fd():
    nm = _norm(d2(4, 2), ELLIPSE_D2)
    x = 1.3 * random_leaf_points(nm.foliation, 0.6, 1, seed=8)[0]
    g = grad_energy(nm, x)
    fd = gradient_fd(lambda y: energy(nm, y), x, step=1e-6)
    assert np.allclose(g, fd, atol=1e-8)


def test_grad_energy_euler_identity():
    # <grad E, x> = 2E for 2-homogeneous E
    nm = _norm(cartan3(), Profile(3, (0.5, 0.03)))
    x = 0.8 * random_leaf_points(nm.foliation, 0.5, 1, seed=2)[0]
    assert float(grad_energy(nm, x) @ x) == pytest.approx(
        2.0 * energy(nm, x), abs=1e-12)


# ------------------------------------------------------------------ frame

def test_frame_components_frozen():
    nm = _norm(d2(4, 2), ELLIPSE_D2)
    x = random_leaf_points(nm.foliation, math.pi / 4, 1, seed=0)[0]
    fc = frame_components(nm, x, shape_spectrum(nm.foliation, x))
    assert fc.g_rr == pytest.approx(2.0, abs=1e-10)
    assert fc.g_rt == pytest.approx(-0.4, abs=1e-10)
    assert fc.g_tt == pytest.approx(2.0, abs=1e-10)
    assert sorted(fc.tangential_factors) == pytest.approx([1.6, 2.4],
                                                          abs=1e-6)


@pytest.mark.parametrize("model,profile", [
    (d1(3), ELLIPSE_D1),
    (d2(4, 2), ELLIPSE_D2),
    (cartan3(), Profile(3, (0.5, 0.02))),
])
def test_frame_matches_fd_tensor(model, profile):
    nm = _norm(model, profile)
    for i, t in enumerate((0.35, 0.8 * math.pi / model.d)):
        x = 1.2 * random_leaf_points(model, t, 1, seed=i)[0]
        spec = shape_spectrum(model, x / np.linalg.norm(x))
        fd = fd_fundamental_tensor(nm, x)
        basis = frame_basis(nm, x, spec)
        projected = basis.T @ fd.matrix @ basis
        closed = closed_frame_matrix(nm, x, spec)
        assert np.max(np.abs(projected - closed)) < 1e-5
        assert fd.positive_definite


def test_fd_tensor_round_is_identity():
    nm = _norm(d1(4), round_profile(1))
    x = np.array([0.3, -0.8, 0.5, 0.1])
    fd = fd_fundamental_tensor(nm, x)
    assert np.allclose(fd.matrix, np.eye(4), atol=1e-8)


# -------------------------------------------------------------- curvature

def test_riemann_flat_round():
    for model in (d1(3), d2(4, 2), cartan3()):
        nm = _norm(model, round_profile(model.d))
        x = random_leaf_points(model, 0.45, 1, seed=3)[0]
        res = riemann_fd(nm, x)
        assert res.flat
        assert res.max_abs_component < 1e-9


def test_riemann_flat_quadratic_ellipse():
    nm = _norm(d1(3), ELLIPSE_D1)
    x = random_leaf_points(nm.foliation, 0.7, 1, seed=5)[0]
    res = riemann_fd(nm, x)
    assert res.flat


def test_riemann_nonflat_randers():
    nm = _norm(d1(3), RANDERS)
    x = random_leaf_points(nm.foliation, 0.9, 1, seed=4)[0]
    res = riemann_fd(nm, x)
    assert not res.flat
    assert res.max_abs_component > 1e-2
    assert res.max_abs_component > 10 * res.noise_floor


def _former_riemann(nm, x):
    """Max |R| by riemann_fd's former recipe: G and T from FD stencils of E
    (steps 2e-4 and 1e-3), contracted in one unstaged einsum."""
    x = x / np.linalg.norm(x)
    fun = lambda p: energy(nm, p)
    G = hessian_fd(fun, x, step=2e-4)
    Gi = np.linalg.inv(0.5 * (G + G.T))
    T = third_tensor_fd(fun, x, step=1e-3)
    A = np.einsum("la,iab,bm,mjk->lkij", Gi, T, Gi, T)
    return float(np.max(np.abs(0.25 * (np.transpose(A, (0, 1, 3, 2)) - A))))


WAVY_D2 = Profile(2, (1.0, 0.2, 0.03))


@pytest.mark.parametrize("model,profile", [
    (d1(3), RANDERS),
    (d1(3), Profile(1, (0.5, 0.03, 0.01))),
    (d2(4, 2), WAVY_D2),
    (d2(8, 3), WAVY_D2),
    (d2(4, 2), DualProfile(WAVY_D2)),
    (cartan3(), Profile(3, (0.5, 0.02))),
])
def test_riemann_matches_the_former_fd_recipe(model, profile):
    nm = _norm(model, profile)
    for i, t in enumerate((0.3, 0.6 * math.pi / model.d)):
        x = random_leaf_points(model, t, 1, seed=30 + i)[0]
        former = _former_riemann(nm, x)
        assert former > 1e-5  # curved, far above the flat cases
        assert riemann_fd(nm, x).max_abs_component == pytest.approx(former,
                                                                     rel=1e-4)


@pytest.mark.parametrize("model,profile", [
    (d1(3), round_profile(1)), (d2(8, 3), round_profile(2)),
    (cartan3(), round_profile(3)), (d1(3), ELLIPSE_D1),
    (d2(4, 2), ELLIPSE_D2), (d2(8, 3), Profile(2, (1.0, -0.3))),
])
def test_riemann_of_flat_norms_is_rounding(model, profile):
    nm = _norm(model, profile)
    for i, t in enumerate((0.3, 0.6 * math.pi / model.d)):
        x = random_leaf_points(model, t, 1, seed=30 + i)[0]
        assert riemann_fd(nm, x).max_abs_component < 1e-18


# ------------------------------------------------- indicatrix t operators

def test_grad_t_norm_frozen():
    nm = _norm(d2(4, 2), ELLIPSE_D2)
    assert indicatrix_grad_t_norm(nm, math.pi / 4) == pytest.approx(
        1.0416666666666667, abs=1e-12)


def test_laplacian_frozen_d1():
    nm = _norm(d1(3), ELLIPSE_D1)
    assert indicatrix_laplacian_t(nm, math.pi / 4) == pytest.approx(
        5.0 / 6.0, abs=1e-12)


def test_laplacian_frozen_d2():
    nm = _norm(d2(4, 2), ELLIPSE_D2)
    assert indicatrix_laplacian_t(nm, 2 * math.pi / 7) == pytest.approx(
        -0.4341249128064847, abs=1e-12)
    assert indicatrix_laplacian_t(nm, math.pi / 4) == pytest.approx(
        0.0, abs=1e-13)


def test_laplacian_round_is_cot():
    nm = _norm(d1(5), round_profile(1))
    for t in (0.4, 1.1, 2.0):
        assert indicatrix_laplacian_t(nm, t) == pytest.approx(
            3.0 / math.tan(t), abs=1e-10)
    nmc = _norm(cartan3(), round_profile(3))
    for t in (0.3, 0.7):
        assert indicatrix_laplacian_t(nmc, t) == pytest.approx(
            3.0 / math.tan(3.0 * t), abs=1e-10)


def test_fd_indicatrix_operators_match_closed():
    nm = _norm(d2(4, 2), ELLIPSE_D2)
    t = 0.6
    u = random_leaf_points(nm.foliation, t, 1, seed=6)[0]
    assert fd_indicatrix_grad_t_norm(nm, u) == pytest.approx(
        indicatrix_grad_t_norm(nm, t), abs=1e-6)
    assert fd_indicatrix_laplacian_t(nm, u) == pytest.approx(
        indicatrix_laplacian_t(nm, t), abs=1e-5)


def test_fd_laplacian_xi_independent():
    # two different leaf points, same t: the chart-based value must agree
    nm = _norm(cartan3(), Profile(3, (0.5, 0.02)))
    t = 0.5
    us = random_leaf_points(nm.foliation, t, 2, seed=7)
    vals = [fd_indicatrix_laplacian_t(nm, u) for u in us]
    assert abs(vals[0] - vals[1]) < 1e-5


def _one_point_chart_point(u0, V, z):
    zeta = float(np.linalg.norm(z))
    if zeta < 1e-14:
        return u0.copy(), V.T.copy()
    vz = V.T @ z
    u = math.cos(zeta) * u0 + (math.sin(zeta) / zeta) * vz
    du = np.empty((len(u0), len(V)))
    coeff = (math.cos(zeta) / zeta - math.sin(zeta) / zeta ** 2)
    for a in range(len(V)):
        du[:, a] = (-math.sin(zeta) * (z[a] / zeta) * u0
                    + coeff * (z[a] / zeta) * vz
                    + (math.sin(zeta) / zeta) * V[a])
    return u, du


def _one_point_chart_data(nm, u0, V, z, tensor_step):
    """Reference for the stacked chart data: one offset z, one point per
    call of t_coord, jet, unit_w and hessian_fd."""
    m = nm.foliation
    u, du = _one_point_chart_point(u0, V, z)
    t = t_coord(m, u).t
    f0, f1 = nm.profile.jet(t, 1)
    w = unit_w(m, u)
    dt = du.T @ w
    rho = 1.0 / math.sqrt(2.0 * f0)
    drho = -f1 * rho / (2.0 * f0) * dt
    X = rho * u
    J = rho * du + np.outer(u, drho)
    G = hessian_fd(lambda p: energy(nm, p), X, step=tensor_step * rho)
    G = 0.5 * (G + G.T)
    ghat = J.T @ G @ J
    return ghat, dt, math.sqrt(float(np.linalg.det(ghat)))


def _one_point_operators(nm, u0, outer_step=1e-2, tensor_step=3e-4,
                         grad_step=hessian.CURVATURE_TENSOR_STEP):
    u0 = np.asarray(u0, dtype=float)
    u0 = u0 / np.linalg.norm(u0)
    V = _sphere_tangent_basis(u0)
    na = len(V)
    ghat, dt, _ = _one_point_chart_data(nm, u0, V, np.zeros(na), grad_step)
    grad = float(dt @ np.linalg.solve(ghat, dt))
    _, _, sdet0 = _one_point_chart_data(nm, u0, V, np.zeros(na), tensor_step)
    total = 0.0
    for a in range(na):
        for coef, mult in ((-1.0, 2.0), (8.0, 1.0), (-8.0, -1.0), (1.0, -2.0)):
            z = np.zeros(na)
            z[a] = mult * outer_step
            ghat, dt, sdet = _one_point_chart_data(nm, u0, V, z, tensor_step)
            flux = sdet * np.linalg.solve(ghat, dt)
            total += coef * flux[a] / (12.0 * outer_step)
    return grad, float(total / sdet0)


@pytest.mark.parametrize("model,profile", [
    (d1(3), RANDERS),
    (d2(4, 2), ELLIPSE_D2),
    (d2(8, 3), Profile(2, (1.0, 0.3))),
    (cartan3(), Profile(3, (0.5, 0.02))),
    (d2(4, 2), DualProfile(Profile(2, (1.0, 0.3)))),
], ids=["d1:3", "d2:4:2", "d2:8:3", "cartan3", "d2:4:2-dual"])
def test_fd_indicatrix_chart_keeps_one_point_bits(model, profile):
    # the chart points are evaluated in one pass; every value must be the
    # one the per-point loop gives, to the last bit
    nm = _norm(model, profile)
    hi = math.pi / model.d - 0.3
    for i, t in enumerate(np.linspace(0.3, hi, 3)):
        for u in random_leaf_points(model, float(t), 2, seed=20 + i):
            grad, lap = _one_point_operators(nm, u)
            assert fd_indicatrix_grad_t_norm(nm, u) == grad
            assert fd_indicatrix_laplacian_t(nm, u) == lap
    grad, lap = _one_point_operators(nm, u, outer_step=2.5e-2,
                                     tensor_step=1e-3, grad_step=5e-4)
    assert fd_indicatrix_grad_t_norm(nm, u, tensor_step=5e-4) == grad
    assert fd_indicatrix_laplacian_t(nm, u, outer_step=2.5e-2,
                                     tensor_step=1e-3) == lap


def test_fd_indicatrix_laplacian_makes_one_energy_call(monkeypatch):
    nm = _norm(d2(8, 3), Profile(2, (1.0, 0.3)))
    u = random_leaf_points(nm.foliation, 0.5, 1, seed=3)[0]
    calls = []
    one_call = hessian.energy

    def counted(nm, x):
        calls.append(len(x))
        return one_call(nm, x)

    monkeypatch.setattr(hessian, "energy", counted)
    fd_indicatrix_laplacian_t(nm, u)
    # 1 + 4(n - 1) chart points, each a 1 + 2n^2 point Hessian stencil
    assert calls == [29 * (1 + 2 * 8 * 8)]


# ------------------------------------------------------------- flat gate

def test_cartan_flat_candidate_gate():
    assert cartan_flat_candidate(round_profile(3)).candidate
    assert cartan_flat_candidate(Profile(3, (0.5, 0.02))).candidate
    # any profile whose derivative survives at pi/3 is rejected outright
    rep = cartan_flat_candidate(RANDERS)
    assert not rep.candidate
    assert abs(rep.fprime_at_pi3) > 1e-3
