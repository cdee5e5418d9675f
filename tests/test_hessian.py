"""Induced norms on R^n: frame formulas, curvature, indicatrix operators."""

import json
import math
import warnings

import numpy as np
import pytest

from isonorm import cli, foliation, hessian
from fd_oracles import third_tensor_fd
from isonorm.fd import hessian_fd
from isonorm.foliation import (DEFAULT_FOCAL_GUARD, FocalProximityError,
                               cartan3, d1, d2, parse_model, random_leaf_points,
                               shape_spectrum, t_coord, unit_w)
from isonorm.hessian import (InducedNorm, closed_frame_matrix,
                             closed_fundamental_tensor,
                             energy, fd_fundamental_tensor,
                             fd_indicatrix_laplacian_t, fd_indicatrix_operators,
                             frame_basis,
                             indicatrix_grad_t_norm, indicatrix_laplacian_t,
                             riemann_fd, value)
from isonorm.planar import DualProfile
from isonorm.profile import Profile, is_minkowski, save_profile

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


@pytest.mark.parametrize("model,profile", [
    (d1(3), ELLIPSE_D1), (d2(4, 2), ELLIPSE_D2), (cartan3(), Profile(3, (0.5, 0.02)))])
def test_value_rows_have_the_bits_of_one_point_calls(model, profile):
    nm = _norm(model, profile)
    X = np.concatenate([random_leaf_points(model, np.linspace(0.2, 0.8, 6) * math.pi
                                           / model.d, 6, seed=4) * 1.7,
                        np.zeros((1, model.n))])
    F = value(nm, X)
    assert F.shape == (7,)
    assert F.tolist() == [value(nm, x) for x in X]
    assert F[-1] == 0.0 and value(nm, np.zeros(model.n)) == 0.0
    # F = r sqrt(2 f(t))
    r, t = t_coord(model, X[:-1])
    assert np.allclose(F[:-1], r * np.sqrt(2.0 * profile.evaluate(t, 0)),
                       rtol=1e-14, atol=0.0)


def test_profile_model_d_mismatch():
    with pytest.raises(ValueError):
        InducedNorm(cartan3(), ELLIPSE_D2)


# ------------------------------------------------------------------ frame

def test_tensor_reports_the_frame_on_the_coordinate_fields(capsys, tmp_path):
    # f = 1 + 0.2 cos 2t at t = pi/4: f = 1, f' = -0.4, f'' = 0, and the
    # leaf's shape eigenvalues are cot(pi/4) = 1 and cot(3 pi/4) = -1
    save_profile(ELLIPSE_D2, tmp_path / "f.json")
    assert cli.main(["tensor", "--profile", str(tmp_path / "f.json"),
                     "--model", "d2:4:2", "--t", str(math.pi / 4),
                     "--r", "1.3"]) == 0
    res = json.loads(capsys.readouterr().out)["results"]
    assert res["g_rr"] == pytest.approx(2.0, abs=1e-10)
    assert res["g_rt"] == pytest.approx(-0.4 * 1.3, abs=1e-10)
    assert res["g_tt"] == pytest.approx(2.0 * 1.69, abs=1e-10)
    assert sorted(res["tangential_factors"]) == pytest.approx([1.6, 2.4],
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
    nm = _norm(d1(4), Profile(1, (0.5,)))
    x = np.array([0.3, -0.8, 0.5, 0.1])
    fd = fd_fundamental_tensor(nm, x)
    assert np.allclose(fd.matrix, np.eye(4), atol=1e-8)


def test_fd_tensor_raises_t_coords_errors_before_any_warning():
    # the suite turns RuntimeWarnings into errors: an overflowing |x|^2 must
    # reach the named error before the stencil's step can warn
    nm = _norm(d2(4, 2), ELLIPSE_D2)
    x = np.array([1e200, 1e200, 0.0, 0.0])  # every entry finite, |x|^2 not
    for pts in (x, np.array([[1.0, 0.0, 0.0, 0.0], x])):
        with pytest.raises(ValueError, match="overflows"):
            fd_fundamental_tensor(nm, pts)
    for pts in (np.zeros(4), np.array([[1.0, 0.0, 0.0, 0.0], [0.0] * 4])):
        with pytest.raises(ValueError, match="t undefined at the origin"):
            fd_fundamental_tensor(nm, pts)


# -------------------------------------------------------------- curvature

def test_riemann_flat_round():
    for model in (d1(3), d2(4, 2), cartan3()):
        nm = _norm(model, Profile(model.d, (0.5,)))
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
    (d1(3), Profile(1, (0.5,))), (d2(8, 3), Profile(2, (0.5,))),
    (cartan3(), Profile(3, (0.5,))), (d1(3), ELLIPSE_D1),
    (d2(4, 2), ELLIPSE_D2), (d2(8, 3), Profile(2, (1.0, -0.3))),
])
def test_riemann_of_flat_norms_is_rounding(model, profile):
    nm = _norm(model, profile)
    for i, t in enumerate((0.3, 0.6 * math.pi / model.d)):
        x = random_leaf_points(model, t, 1, seed=30 + i)[0]
        assert riemann_fd(nm, x).max_abs_component < 1e-18


# the cosine coefficients a quadratic E may carry: r^2 cos 2t is 2 x_1^2 - r^2
# for d = 1 and |x'|^2 - |x''|^2 for d = 2
QUADRATIC_TERMS = {1: (0, 2), 2: (0, 1), 3: (0,)}


def _random_profile(rng, d, quadratic):
    """A valid Profile of 5 terms: a random quadratic one, and if not
    quadratic, one other term of size 1e-6 to 1e-1 added."""
    while True:
        c = np.zeros(5)
        c[0] = 1.0
        if d < 3:
            c[QUADRATIC_TERMS[d][1]] = rng.uniform(-0.99, 0.99)
        if not quadratic:
            j = rng.choice([j for j in range(5) if j not in QUADRATIC_TERMS[d]])
            c[j] = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-6.0, -1.0)
        p = Profile(d, tuple(c.tolist()))
        if is_minkowski(p).valid:
            return p


@pytest.mark.parametrize("spec", ["d1:3", "d1:5", "d2:4:2", "d2:8:3", "d2:5:1",
                                  "cartan3"])
def test_riemann_fd_is_flat_exactly_on_quadratic_energies(spec):
    # the paper's Laugwitz theorem: for n > 2 the Hessian metric is flat iff
    # F is Euclidean, i.e. iff the profile has no term but the quadratic ones
    model = parse_model(spec)
    rng = np.random.default_rng(sum(map(ord, spec)))
    lo, hi = DEFAULT_FOCAL_GUARD + 0.01, math.pi / model.d - DEFAULT_FOCAL_GUARD - 0.01
    for trial in range(16):
        quadratic = trial % 2 == 0
        profile = _random_profile(rng, model.d, quadratic)
        us = random_leaf_points(model, rng.uniform(lo, hi, 3), 3, seed=trial)
        res = riemann_fd(_norm(model, profile), us)
        # a curved norm's R may vanish at a point (at t = pi/2 when d = 1 and
        # f is even about it), so the verdict on the norm is "flat at all"
        assert res.flat.all() == quadratic, profile.cos_coeffs
        if not quadratic:
            assert res.max_abs_component.max() > 10.0 * res.noise_floor.max()


@pytest.mark.parametrize("spec,base", [
    ("d1:3", Profile(1, (1.0, 0.0, 0.99))), ("d1:5", Profile(1, (1.0, 0.0, -0.99))),
    ("d2:4:2", Profile(2, (1.0, 0.99))), ("d2:4:2", Profile(2, (1.0, -0.99))),
    ("d2:8:3", Profile(2, (1.0, 0.99))), ("d2:5:1", Profile(2, (1.0, -0.95))),
])
def test_riemann_fd_calls_the_dual_of_a_quadratic_energy_flat(spec, base):
    # the Legendre dual of a quadratic E is quadratic; near the validity
    # bound its G is far from round, and its T from zero
    model = parse_model(spec)
    guard = DEFAULT_FOCAL_GUARD + 0.001
    us = random_leaf_points(model, np.linspace(guard, math.pi / model.d - guard, 6),
                            6, seed=1)
    assert riemann_fd(_norm(model, DualProfile(base)), us).flat.all()


@pytest.mark.parametrize("model,profile", [
    (d1(3), RANDERS), (d1(3), ELLIPSE_D1), (d2(8, 3), WAVY_D2),
    (d2(4, 2), DualProfile(WAVY_D2)), (cartan3(), Profile(3, (0.5, 0.02))),
])
def test_riemann_fd_rows_have_the_bits_of_one_point_calls(model, profile):
    nm = _norm(model, profile)
    us = 1.7 * random_leaf_points(model, np.linspace(0.2, 0.8, 5) * math.pi
                                  / model.d, 5, seed=6)
    res = riemann_fd(nm, us)
    assert [a.shape for a in res] == [(5,)] * 3
    assert list(zip(*(a.tolist() for a in res))) == [riemann_fd(nm, u) for u in us]
    assert [a.shape for a in riemann_fd(nm, us[:0])] == [(0,)] * 3


def test_riemann_fd_rows_raise_the_guard_error_of_their_first_bad_row():
    model = d2(4, 2)
    us = random_leaf_points(model, [0.5, 0.01, 1.56], 3, seed=0)
    with pytest.raises(FocalProximityError, match="t=0.0100 inside"):
        riemann_fd(_norm(model, ELLIPSE_D2), us)


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
    nm = _norm(d1(5), Profile(1, (0.5,)))
    for t in (0.4, 1.1, 2.0):
        assert indicatrix_laplacian_t(nm, t) == pytest.approx(
            3.0 / math.tan(t), abs=1e-10)
    nmc = _norm(cartan3(), Profile(3, (0.5,)))
    for t in (0.3, 0.7):
        assert indicatrix_laplacian_t(nmc, t) == pytest.approx(
            3.0 / math.tan(3.0 * t), abs=1e-10)


def test_fd_indicatrix_operators_match_closed():
    nm = _norm(d2(4, 2), ELLIPSE_D2)
    t = 0.6
    u = random_leaf_points(nm.foliation, t, 1, seed=6)[0]
    grad, lap = fd_indicatrix_operators(nm, u)
    assert grad == pytest.approx(indicatrix_grad_t_norm(nm, t), abs=1e-6)
    assert lap == pytest.approx(
        indicatrix_laplacian_t(nm, t), abs=1e-5)


def test_fd_laplacian_xi_independent():
    # two different leaf points, same t: the FD values must agree
    nm = _norm(cartan3(), Profile(3, (0.5, 0.02)))
    t = 0.5
    us = random_leaf_points(nm.foliation, t, 2, seed=7)
    vals = [fd_indicatrix_laplacian_t(nm, u) for u in us]
    assert abs(vals[0] - vals[1]) < 1e-5


def _one_point_operators(nm, u0):
    """Reference for the stacked operators: the ambient formulas, one point
    and one stencil row per call of t_coord, jet, unit_w and
    closed_fundamental_tensor."""
    m = nm.foliation
    u0 = np.asarray(u0, dtype=float)
    r, t = t_coord(m, u0)
    rho = 1.0 / math.sqrt(2.0 * nm.profile.evaluate(t, 0))
    x, h = rho * (u0 / r), hessian.INDICATRIX_STEP * rho

    def flux(y):
        G = closed_fundamental_tensor(nm, y)
        dt = unit_w(m, y) / t_coord(m, y).r
        return dt, math.sqrt(float(np.linalg.det(G))), np.linalg.solve(G, dt)

    dt, sdet0, sol = flux(x)
    div = []
    for a in range(m.n):
        f = {}
        for mult in (2.0, 1.0, -1.0, -2.0):
            y = x.copy()
            y[a] += mult * h
            _, sdet, sol_y = flux(y)
            f[mult] = sdet * sol_y[a]
        div.append((8.0 * (f[1.0] - f[-1.0]) - (f[2.0] - f[-2.0])) / (12.0 * h))
    return float(dt @ sol), float(np.sum(div) / sdet0)


MODEL_PROFILES = [
    (d1(3), RANDERS),
    (d2(4, 2), ELLIPSE_D2),
    (d2(8, 3), Profile(2, (1.0, 0.3))),
    (cartan3(), Profile(3, (0.5, 0.02))),
    (d2(4, 2), DualProfile(Profile(2, (1.0, 0.3)))),
]
MODEL_IDS = ["d1:3", "d2:4:2", "d2:8:3", "cartan3", "d2:4:2-dual"]


@pytest.mark.parametrize("model,profile", MODEL_PROFILES, ids=MODEL_IDS)
def test_fd_indicatrix_operators_keep_one_point_bits(model, profile):
    # all points and their stencil rows are evaluated in one pass; every
    # value must be the one the per-point, per-row loop gives, to the last bit
    nm = _norm(model, profile)
    hi = math.pi / model.d - 0.3
    us = np.concatenate([random_leaf_points(model, float(t), 2, seed=20 + i)
                         for i, t in enumerate(np.linspace(0.3, hi, 3))])
    grads, laps = fd_indicatrix_operators(nm, us)
    assert grads.shape == laps.shape == (6,)
    for u, g, lap in zip(us, grads, laps):
        assert (g, lap) == _one_point_operators(nm, u)
        assert fd_indicatrix_operators(nm, u) == (g, lap)
        assert fd_indicatrix_laplacian_t(nm, u) == lap


@pytest.mark.parametrize("model,profile", MODEL_PROFILES[:4], ids=MODEL_IDS[:4])
def test_fd_indicatrix_laplacian_near_the_focal_ends(model, profile):
    # the closed G leaves only the outer difference's truncation error, so
    # the ambient Laplacian holds at the 0.02 leaf margin that the commands
    # draw from
    nm = _norm(model, profile)
    t = DEFAULT_FOCAL_GUARD + 0.02
    for t in (t, math.pi / model.d - t):
        us = random_leaf_points(model, t, 3, seed=5)
        _, laps = fd_indicatrix_operators(nm, us)
        assert np.max(np.abs(laps - indicatrix_laplacian_t(nm, t))) < 2e-9


def test_fd_indicatrix_operators_make_two_polar_passes(monkeypatch):
    # one of the input rows, then two of their stencil rows: one for dt and
    # one inside their closed G
    model, profile = MODEL_PROFILES[2]
    us = random_leaf_points(model, 0.6, 2, seed=4)
    calls = []
    for module in (hessian, foliation):
        monkeypatch.setattr(module, "_polar",
                            lambda m, x, one=module._polar:
                            calls.append(len(x)) or one(m, x))
    fd_indicatrix_operators(_norm(model, profile), us)
    assert calls == [2] + [2 * (4 * model.n + 1)] * 2


@pytest.mark.parametrize("model,profile", MODEL_PROFILES, ids=MODEL_IDS)
def test_closed_fundamental_tensor_evaluates_p_once_per_row_set(monkeypatch,
                                                               model, profile):
    # the polar pass hands p on to w and S, which evaluated it again before
    nm = _norm(model, profile)
    xs = random_leaf_points(model, 0.6, 3, seed=5)
    calls, one = [], foliation._poly
    monkeypatch.setattr(foliation, "_poly",
                        lambda m, u: calls.append(u.shape) or one(m, u))
    for x in (xs, xs[0]):
        calls.clear()
        closed_fundamental_tensor(nm, x)
        assert calls == [np.atleast_2d(x).shape]


def test_geometry_entry_points_raise_the_origin_error_without_a_warning():
    model, profile = MODEL_PROFILES[1]
    nm = _norm(model, profile)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in (lambda x: riemann_fd(nm, x),
                     lambda x: shape_spectrum(model, x),
                     lambda x: fd_indicatrix_operators(nm, x),
                     lambda x: frame_basis(nm, x, [])):
            with pytest.raises(ValueError, match="t undefined at the origin"):
                call(np.zeros(model.n))
        with pytest.raises(ValueError, match="t undefined at the origin"):
            fd_indicatrix_operators(nm, np.eye(2, model.n) * [[1.0], [0.0]])


def test_frame_functions_name_the_one_point_shape_given_rows():
    # rows ended in numpy's broadcast or "inhomogeneous shape" errors
    model, profile = MODEL_PROFILES[1]
    nm = _norm(model, profile)
    X = random_leaf_points(model, 0.4, 3, seed=0)
    spec = shape_spectrum(model, X[0])
    for call in (lambda x: shape_spectrum(model, x),
                 lambda x: frame_basis(nm, x, spec),
                 lambda x: closed_frame_matrix(nm, x, spec)):
        for bad in (X, X[:1], X[0, :-1]):
            with pytest.raises(ValueError, match=r"one point of shape \(4,\)"):
                call(bad)


@pytest.mark.parametrize("model,profile", MODEL_PROFILES[:4], ids=MODEL_IDS[:4])
def test_frame_functions_raise_on_a_focal_cone(model, profile):
    # no frame exists where w degenerates: frame_basis raised there, while
    # closed_frame_matrix returned a matrix
    nm = _norm(model, profile)
    x = 1.3 * np.eye(model.n)[0]  # t = 0 on every model
    for call in (frame_basis, closed_frame_matrix):
        with pytest.raises(FocalProximityError, match="degenerates on the focal set"):
            call(nm, x, [])


def test_fd_indicatrix_operators_take_no_rows():
    model, profile = MODEL_PROFILES[3]
    grads, laps = fd_indicatrix_operators(_norm(model, profile),
                                          np.empty((0, model.n)))
    assert grads.shape == laps.shape == (0,)


def test_isoparametric_check_makes_one_chart_call(monkeypatch, tmp_path,
                                                   capsys):
    closed_rows, energy_calls = [], []
    closed, one_energy = hessian.closed_fundamental_tensor, hessian.energy
    monkeypatch.setattr(hessian, "closed_fundamental_tensor",
                        lambda nm, X: closed_rows.append(len(X)) or closed(nm, X))
    monkeypatch.setattr(hessian, "energy",
                        lambda nm, x: energy_calls.append(len(x))
                        or one_energy(nm, x))
    save_profile(Profile(2, (1.0, 0.2)), tmp_path / "f.json")
    code = cli.main(["isoparametric-check", "--profile", str(tmp_path / "f.json"),
                     "--model", "d2:8:3"])
    capsys.readouterr()
    assert code == 0
    # 5 leaves x 3 points, each the base and 4n stencil rows, n = 8
    assert closed_rows == [5 * 3 * 33]
    assert energy_calls == []

