"""Acceptance suite: one check per headline property, one PASS line each.

Each test prints `[PASS] criterion N: ...` so a verbose run doubles as the
sign-off sheet.  Tolerances are stated inline next to each check.
"""

import math

import numpy as np

from isonorm.foliation import (cartan3, d1, d2, random_leaf_points,
                               shape_spectrum)
from isonorm.hessian import (InducedNorm, closed_frame_matrix,
                             fd_fundamental_tensor, fd_indicatrix_operators,
                             frame_basis, indicatrix_grad_t_norm,
                             indicatrix_laplacian_t, riemann_fd)
from isonorm.isometry import (Decomposition, IsometryTriple, Sector,
                              bump_profile, check_d_property,
                              check_hessian_isometry, classify_sectors,
                              glue_construct, identity_map, integrate_branch,
                              legendre_map_tag, lift_to_nd, ode_residuals,
                              quadratic_and_roots)
from isonorm.planar import (DualProfile, PlanarNorm, dual_profile,
                            indicatrix_point, legendre_map, legendre_ode_rhs,
                            theta_legendre, theta_scaled)
from isonorm.profile import Profile, is_minkowski

ELLIPSE_D1 = Profile(1, (1.0, 0.0, 0.2))
ELLIPSE_D2 = Profile(2, (1.0, 0.2))
RANDERS = Profile(1, (0.5225, 0.3, 0.0225))
WOBBLE3 = Profile(3, (0.5, 0.02, 0.005))


def _pass(n, text):
    print(f"[PASS] criterion {n}: {text}")


# --------------------------------------------------------------------- 1

def test_criterion_1_validity_closed_form():
    worst = 0.0
    for b in (0.2, 0.5, 0.99, 1.1):
        rep = is_minkowski(Profile(2, (1.0, b)))
        worst = max(worst, abs(rep.min_gap - 4.0 * (1.0 - b * b)))
        assert worst < 1e-12
        assert rep.valid is (1.0 > abs(b))
    _pass(1, f"min_gap matches 4(a^2-b^2) to {worst:.2e} (tol 1e-12); "
             f"validity flips at a=|b|")


# --------------------------------------------------------------------- 2

def test_criterion_2_frame_formulas():
    cases = [
        (d1(3), ELLIPSE_D1), (d1(3), RANDERS),
        (d2(4, 2), ELLIPSE_D2), (d2(4, 2), Profile(2, (1.0, 0.1, 0.01))),
        (cartan3(), Profile(3, (0.5, 0.02))), (cartan3(), WOBBLE3),
    ]
    worst = off_worst = 0.0
    for model, profile in cases:
        nm = InducedNorm(model, profile)
        rng = np.random.default_rng(1)
        ts = rng.uniform(0.1, math.pi / model.d - 0.1, 20)
        for i, t in enumerate(ts):
            u = random_leaf_points(model, float(t), 1, seed=i)[0]
            x = (1.0 if i % 2 else 1.3) * u
            spec = shape_spectrum(model, u)
            projected = frame_basis(nm, x, spec).T \
                @ fd_fundamental_tensor(nm, x).matrix \
                @ frame_basis(nm, x, spec)
            closed = closed_frame_matrix(nm, x, spec)
            worst = max(worst, float(np.max(np.abs(projected - closed))))
            off = projected.copy()
            off[np.abs(closed) > 0] = 0.0
            off_worst = max(off_worst, float(np.max(np.abs(off))))
    assert worst < 1e-5
    assert off_worst < 1e-5
    _pass(2, f"projected FD tensor matches frame components to {worst:.2e}, "
             f"off-frame entries {off_worst:.2e} (tol 1e-5), "
             f"{len(cases)} model/profile pairs x 20 points")


# --------------------------------------------------------------------- 3

def test_criterion_3_legendre_suite():
    nm = PlanarNorm(Profile(1, (0.55, 0.04, 0.01)))
    dual_nm = PlanarNorm(DualProfile(nm.profile))
    rng = np.random.default_rng(5)
    inv_err = 0.0
    for _ in range(100):
        x = indicatrix_point(nm, float(rng.uniform(0, 2 * math.pi)))
        back = legendre_map(dual_nm, legendre_map(nm, x))
        inv_err = max(inv_err, float(np.max(np.abs(back - x))))
    assert inv_err < 1e-8

    ang_err = ode_err = 0.0
    for t in np.linspace(0.05, math.pi - 0.05, 50):
        t = float(t)
        y = legendre_map(nm, indicatrix_point(nm, t))
        th = theta_legendre(nm.profile, t)
        ang_err = max(ang_err, abs(th - math.atan2(y[1], y[0])))
        ode_err = max(ode_err, abs(theta_scaled(nm.profile, t, 1.0, 1.0, 1)[1]
                                   - legendre_ode_rhs(nm.profile, t, th)))
    assert ang_err < 1e-10
    assert ode_err < 1e-5

    dp = dual_profile(PlanarNorm(ELLIPSE_D2), grid_size=512)
    dual_err = max(abs(dp.cos_coeffs[0] - 0.2604166666666667),
                   abs(dp.cos_coeffs[1] + 0.05208333333333333))
    assert dual_err < 1e-6
    _pass(3, f"involution {inv_err:.2e} (tol 1e-8) on 100 samples; "
             f"gradient angle {ang_err:.2e} (tol 1e-10); first-order "
             f"residual {ode_err:.2e} (tol 1e-5); ellipse dual "
             f"coefficients {dual_err:.2e} (tol 1e-6)")


# --------------------------------------------------------------------- 4

def test_criterion_4_ode_system():
    tre_err = 0.0
    for f in (ELLIPSE_D1, ELLIPSE_D2, WOBBLE3):
        for tr in (IsometryTriple(f=f, h=f, theta=identity_map()),
                   IsometryTriple(f=f, h=DualProfile(f),
                                  theta=legendre_map_tag())):
            ts = np.linspace(0.0, math.pi / f.d, 514)[1:-1]
            tre_err = max(tre_err, float(np.max(np.abs(ode_residuals(tr, ts)))))
    assert tre_err < 1e-6

    sol = integrate_branch(Profile(1, (0.5,)), "one", math.pi / 4,
                           math.atan(2.0), math.pi / 3)
    atan_err = abs(sol.thetas[-1] - math.atan(2.0 * math.tan(math.pi / 3)))
    assert atan_err < 1e-6
    sol2 = integrate_branch(ELLIPSE_D2, "two", 0.4,
                            theta_legendre(ELLIPSE_D2, 0.4), 1.45)
    leg_err = max(abs(th - theta_legendre(ELLIPSE_D2, float(t)))
                  for t, th in zip(sol2.ts[::256], sol2.thetas[::256]))
    assert leg_err < 1e-6

    rng = np.random.default_rng(11)
    root_err = 0.0
    for _ in range(100):
        f = Profile(3, (0.5, float(rng.uniform(-0.04, 0.04)),
                        float(rng.uniform(-0.008, 0.008))))
        t = float(rng.uniform(0.1, math.pi / 3 - 0.1))
        theta = float(rng.uniform(0.1, math.pi / 3 - 0.1))
        q = quadratic_and_roots(f, t, theta)
        for r in q.roots:
            root_err = max(root_err, abs(q.A * r * r + q.B * r + q.C))
    assert root_err < 1e-10
    _pass(4, f"identity/Legendre triples residual {tre_err:.2e} on 512-point "
             f"grids (tol 1e-6); branch closed forms {atan_err:.2e} / "
             f"{leg_err:.2e} (tol 1e-6); quadratic root residual "
             f"{root_err:.2e} on 100 draws (tol 1e-10)")


# --------------------------------------------------------------------- 5

def test_criterion_5_d_property():
    f = Profile(2, (1.0, 0.15, 0.01))
    nm = PlanarNorm(f)
    dual_nm = PlanarNorm(DualProfile(f))
    phi = lambda X: legendre_map(nm, X)
    leg_worst = 0.0
    for c in np.linspace(0.0, math.pi, 8):
        res = check_d_property(nm, dual_nm, phi, Decomposition(angle=float(c)),
                               samples=12)
        leg_worst = max(leg_worst, res.max_residual)
    assert leg_worst < 1e-6

    R = np.array([[0.0, -1.0], [1.0, 0.0]])
    rot = check_d_property(nm, nm, lambda X: X @ R.T, Decomposition(angle=0.0),
                           samples=12)
    assert rot.max_residual > 1e-3

    from isonorm.isometry import d_residuals
    tr = IsometryTriple(f=f, h=f, theta=identity_map())
    id_err = 0.0
    ts = np.linspace(0.1, math.pi / 2 - 0.1, 9)
    ode = ode_residuals(tr, ts)
    for k in range(f.d):
        dec = Decomposition(angle=-k * math.pi / f.d)
        for i, t in enumerate(ts):
            x = indicatrix_point(nm, float(t))
            lhs = d_residuals(nm, nm, lambda X: X, dec, x[None])[0]
            rhs = 2.0 * f.evaluate(float(t), 0) * ode[k + 1, i]
            id_err = max(id_err, abs(lhs - rhs))
    assert id_err < 1e-8
    _pass(5, f"Legendre decomposition residual {leg_worst:.2e} at 8 angles "
             f"(tol 1e-6); rotation control {rot.max_residual:.2e} > 1e-3; "
             f"pointwise residual matches k-th equation to {id_err:.2e} "
             f"(tol 1e-8)")


# --------------------------------------------------------------------- 6

def test_criterion_6_indicatrix_operators():
    cases = [(d1(3), Profile(1, (0.55, 0.04, 0.01))),
             (d2(4, 2), Profile(2, (1.0, 0.12, 0.01)))]
    agree = spread = 0.0
    for model, profile in cases:
        nm = InducedNorm(model, profile)
        for i, t in enumerate(np.linspace(0.3, math.pi / model.d - 0.3, 10)):
            t = float(t)
            us = random_leaf_points(model, t, 8, seed=100 + i)
            g_closed = indicatrix_grad_t_norm(nm, t)
            l_closed = indicatrix_laplacian_t(nm, t)
            g_fd, l_fd = fd_indicatrix_operators(nm, us)
            agree = max(agree,
                        max(abs(v - g_closed) for v in g_fd),
                        max(abs(v - l_closed) for v in l_fd))
            spread = max(spread, float(np.ptp(g_fd)), float(np.ptp(l_fd)))
    assert agree < 1e-4
    assert spread < 1e-5
    _pass(6, f"FD gradient norm/Laplacian agree with closed forms to "
             f"{agree:.2e} (tol 1e-4), cross-direction spread {spread:.2e} "
             f"(tol 1e-5), 10 t-values x 8 directions, d=1 and d=2")


# --------------------------------------------------------------------- 7

def test_criterion_7_flatness():
    flat_worst = 0.0
    flat_cases = [
        (d1(3), Profile(1, (0.5,))), (d2(4, 2), Profile(2, (0.5,))),
        (cartan3(), Profile(3, (0.5,))),
        (d1(3), ELLIPSE_D1), (d2(4, 2), ELLIPSE_D2),
    ]
    for model, profile in flat_cases:
        nm = InducedNorm(model, profile)
        u = random_leaf_points(model, 0.45, 1, seed=21)[0]
        res = riemann_fd(nm, u)
        assert res.flat
        flat_worst = max(flat_worst, res.max_abs_component)
    assert flat_worst < 1e-3

    nm = InducedNorm(d1(3), RANDERS)
    res = riemann_fd(nm, np.concatenate([random_leaf_points(d1(3), t, 1, seed=22)
                                         for t in (0.6, 0.9, 1.3)]))
    assert not res.flat.any()
    curved = float(res.max_abs_component.max())
    assert curved > 1e-2
    _pass(7, f"curvature {flat_worst:.2e} (tol 1e-3), below the noise floor, "
             f"on round and quadratic-form norms; Randers control "
             f"{curved:.2e} > 1e-2, curved at every point")


# --------------------------------------------------------------------- 8

def test_criterion_8_glued_lift():
    band_width = 0.02
    base = bump_profile(3, humps=[(0.24, 0.4), (0.78, 0.36)])
    res = glue_construct(base,
                         [Sector(0.0, 0.52, "scale"),
                          Sector(0.52, math.pi / 3, "legendre-scale")],
                         band_width=band_width)
    tr = res.triple
    labels = classify_sectors(tr)
    kinds = {s.label for s in labels}
    assert kinds <= {"identity", "legendre", "transition"}
    assert {"identity", "legendre"} <= kinds
    trans_len = sum(s.hi - s.lo for s in labels if s.label == "transition")
    assert trans_len < 3.0 * band_width

    model = cartan3()
    phi = lift_to_nd(tr, model)
    nm1 = InducedNorm(model, tr.f)
    nm2 = InducedNorm(model, tr.h)
    chk = check_hessian_isometry(nm1, nm2, phi, samples=20, seed=2)
    assert chk.max_metric_residual < 1e-12
    _pass(8, f"glued triple classifies into {sorted(kinds)} with transition "
             f"length {trans_len:.3f} < 3x band width; lifted map metric "
             f"residual {chk.max_metric_residual:.2e} (tol 1e-12)")


# --------------------------------------------------------------------- 9

def test_criterion_9_glued_lift_d_property_any_splitting():
    # d > 2: the lifted isometry has the (d)-property for *any* orthogonal
    # splitting R^n = V' + V'', not only the dihedral angles of the plane
    base = bump_profile(3, humps=[(0.24, 0.4), (0.78, 0.36)])
    tr = glue_construct(base, [Sector(0.0, 0.52, "scale"),
                               Sector(0.52, math.pi / 3, "legendre-scale")],
                        band_width=0.02).triple
    model = cartan3()
    nm1, nm2 = InducedNorm(model, tr.f), InducedNorm(model, tr.h)
    phi = lift_to_nd(tr, model)
    rng = np.random.default_rng(0)
    worst = 0.0
    for i in range(12):
        vprime = np.linalg.qr(rng.standard_normal((5, 1 + i % 4)))[0]
        res = check_d_property(nm1, nm2, phi, Decomposition(vprime=vprime),
                               samples=20, seed=i)
        worst = max(worst, res.max_residual)
    assert worst < 1e-12

    R = np.linalg.qr(rng.standard_normal((5, 5)))[0]
    rot = check_d_property(nm1, nm2, lambda X: X @ R.T,
                           Decomposition(vprime=vprime), samples=20)
    assert rot.max_residual > 1e-2
    _pass(9, f"glued cartan3 lift (d)-property residual {worst:.2e} over 12 "
             f"random V' of dimension 1-4 (tol 1e-12); random rotation "
             f"control {rot.max_residual:.2e} > 1e-2")
