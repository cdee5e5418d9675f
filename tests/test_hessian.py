"""Induced norms on R^n: frame formulas, curvature, indicatrix operators."""

import json
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from isonorm import cli, foliation, hessian
from fd_oracles import indicatrix_operators_fd, third_tensor_fd
from isonorm.fd import _arrays, hessian_fd
from isonorm.foliation import (DEFAULT_FOCAL_GUARD, FocalProximityError,
                               cartan3, d1, d2, multiplicities, parse_model,
                               random_leaf_points, shape_spectrum, t_coord)
from isonorm.hessian import (InducedNorm, closed_frame_matrix,
                             closed_fundamental_tensor,
                             energy, fd_fundamental_tensor,
                             fd_indicatrix_laplacian_t, fd_indicatrix_operators,
                             frame_basis,
                             indicatrix_grad_t_norm, indicatrix_laplacian_t,
                             riemann_fd, value)
from isonorm.planar import DualProfile
from isonorm.profile import Profile, SectorProfile, is_minkowski, save_profile

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
        assert np.linalg.eigvalsh(fd.matrix)[0] > 0.0


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
    (d2(4, 2), SectorProfile(2, (0.3,), (WAVY_D2, WAVY_D2.scaled(1.2)))),
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


# ------------------------------------------- exact G and T (the q-form)

EXACT_MODELS = (d1(3), d2(4, 2), d2(8, 3), cartan3())
CURVED = {1: Profile(1, (0.5, 0.03, 0.01)), 2: WAVY_D2, 3: Profile(3, (0.5, 0.02))}
FLAT = {1: ELLIPSE_D1, 2: ELLIPSE_D2, 3: Profile(3, (0.5,))}
EPS = np.finfo(float).eps


def _kinds(base):
    """A Profile, its exact dual and a SectorProfile whose second piece is
    the base scaled, switching at pi/(2d), where no test row lies."""
    d = base.d
    return {"profile": base, "dual": DualProfile(base),
            "sector": SectorProfile(d, (0.5 * math.pi / d,), (base, base.scaled(1.2)))}


def _exact(nm, X):
    """(G, T, dT, dt, Hess t) of the q-form at the unit rows of X, after one
    polar pass."""
    _, u, p, t = foliation._polar(nm.foliation, X)
    return hessian._qform_tensors(nm, u, p, t)


def _rows(model, count=6, seed=8):
    """Leaf rows at t in [0.15, pi/d - 0.15], none near pi/(2d)."""
    return random_leaf_points(model, np.linspace(0.15, math.pi / model.d - 0.15, count),
                              count, seed=seed)


@pytest.mark.parametrize("kind", ["profile", "dual", "sector"])
@pytest.mark.parametrize("model", EXACT_MODELS, ids=lambda m: m.describe())
def test_exact_tensors_match_the_closed_g_and_its_central_difference(model, kind):
    # T against a central difference of closed_fundamental_tensor (step h,
    # error ~h^2 |d^3 G| + eps |G| / h, ~1e-9 of |G| here); the q-form G
    # against the frame form, within a few ulps of |G|
    nm = _norm(model, _kinds(CURVED[model.d])[kind])
    X = _rows(model)
    G, T = _exact(nm, X)[:2]
    closed = closed_fundamental_tensor(nm, X)
    scale = np.abs(closed).max(axis=(1, 2))
    assert (np.abs(G - closed).max(axis=(1, 2)) <= 16 * EPS * scale).all()
    h = 1e-5
    fd = np.stack([(closed_fundamental_tensor(nm, X + h * e)
                    - closed_fundamental_tensor(nm, X - h * e)) / (2.0 * h)
                   for e in np.eye(model.n)], axis=1)
    assert (np.abs(T - fd).max(axis=(1, 2, 3)) <= 1e-8 * scale).all()
    assert np.abs(T).max() > 1e-3  # curved: T is far from its rounding


def test_cartan_third_derivative_is_a_difference_of_its_hessian():
    # Hess p is linear in u for the Cartan cubic, so a central difference
    # of it is exact up to rounding
    m, h = cartan3(), 1e-3
    u = random_leaf_points(m, 0.4, 1, seed=2)[0]
    fd = np.stack([(foliation._hess_poly(m, u + h * e) - foliation._hess_poly(m, u - h * e))
                   / (2.0 * h) for e in np.eye(5)])
    D3 = foliation._fixed_derivative(m)
    assert np.abs(D3 - fd).max() < 1e-11
    assert not D3.flags.writeable and D3 is foliation._fixed_derivative(cartan3())
    # symmetric in all three indices, as a third derivative is
    for axes in ((1, 0, 2), (0, 2, 1), (2, 1, 0)):
        assert np.array_equal(D3, D3.transpose(axes))


@pytest.mark.parametrize("kind", ["profile", "dual", "sector"])
@pytest.mark.parametrize("model", EXACT_MODELS, ids=lambda m: m.describe())
def test_flat_reads_at_its_floor_and_curved_ten_times_above(model, kind):
    # rows from the focal guard's edges inward: t = delta + 1e-4 is where
    # the rounding scale eps J / (d sin dt)^3 is largest
    lo = DEFAULT_FOCAL_GUARD + 1e-4
    ts = np.array([lo, lo + 0.01, 0.3, 0.6 * math.pi / model.d,
                   math.pi / model.d - lo - 0.01, math.pi / model.d - lo])
    X = random_leaf_points(model, ts, len(ts), seed=9)
    flat = riemann_fd(_norm(model, _kinds(FLAT[model.d])[kind]), X)
    assert flat.flat.all()
    assert (flat.max_abs_component <= flat.noise_floor).all()
    assert flat.max_abs_component.max() < 1e-24
    curved = riemann_fd(_norm(model, _kinds(CURVED[model.d])[kind]), X)
    assert (curved.max_abs_component >= 10.0 * curved.noise_floor).all()
    assert not curved.flat.any()


@pytest.mark.parametrize("kind", ["profile", "dual", "sector"])
@pytest.mark.parametrize("model", EXACT_MODELS, ids=lambda m: m.describe())
def test_exact_tensors_of_a_point_have_the_bits_of_its_row(model, kind):
    nm = _norm(model, _kinds(CURVED[model.d])[kind])
    X = 1.3 * _rows(model, 4, seed=11)
    rows = _exact(nm, X)
    for i, x in enumerate(X):
        for one, many in zip(_exact(nm, x), rows):
            assert np.array_equal(one, many[i])


# the paper's Laugwitz theorem (n > 2): the Hessian metric is flat iff E is
# quadratic, i.e. iff the profile's terms are c_0 and, for d = 1, c_2, or for
# d = 2, c_1; any other term, drawn at |c| >= 1e-3 c_0, curves it well
# above the floor
LAUGWITZ_SPECS = ("d1:3", "d1:5", "d2:4:2", "d2:8:3", "d2:5:1", "cartan3")


@given(st.sampled_from(LAUGWITZ_SPECS), st.floats(0.2, 3.0),
       st.lists(st.tuples(st.booleans(), st.floats(1e-3, 0.1), st.booleans(),
                          st.floats(-0.9, 0.9)), min_size=0, max_size=2),
       st.integers(0, 2 ** 16))
@settings(max_examples=150, deadline=None)
def test_flat_exactly_when_the_energy_is_quadratic(spec, c0, terms, seed):
    model = parse_model(spec)
    coeffs = [c0]
    for j, (on, size, negative, quadratic_size) in enumerate(terms, start=1):
        if j in QUADRATIC_TERMS[model.d]:
            coeffs.append(c0 * quadratic_size)
        else:
            coeffs.append(c0 * size * (-1.0 if negative else 1.0) if on else 0.0)
    profile = Profile(model.d, tuple(coeffs))
    assume(is_minkowski(profile).valid)
    quadratic = all(c == 0.0 for j, c in enumerate(coeffs)
                    if j not in QUADRATIC_TERMS[model.d])
    rng = np.random.default_rng(seed)
    lo, hi = DEFAULT_FOCAL_GUARD, math.pi / model.d - DEFAULT_FOCAL_GUARD
    X = random_leaf_points(model, rng.uniform(lo, hi, 3), 3, seed=seed)
    assert riemann_fd(_norm(model, profile), X).flat.all() == quadratic


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
    assert grad == pytest.approx(indicatrix_grad_t_norm(nm, t), rel=1e-13)
    assert lap == pytest.approx(indicatrix_laplacian_t(nm, t), rel=1e-13)


def test_fd_laplacian_xi_independent():
    # two different leaf points, same t: the values must agree, at rounding
    # now that no difference is taken (the paper: N_t is isoparametric)
    nm = _norm(cartan3(), Profile(3, (0.5, 0.02)))
    t = 0.5
    us = random_leaf_points(nm.foliation, t, 2, seed=7)
    vals = [fd_indicatrix_laplacian_t(nm, u) for u in us]
    assert abs(vals[0] - vals[1]) <= 1e-13 * abs(vals[0])


MODEL_PROFILES = [
    (d1(3), RANDERS),
    (d2(4, 2), ELLIPSE_D2),
    (d2(8, 3), Profile(2, (1.0, 0.3))),
    (cartan3(), Profile(3, (0.5, 0.02))),
    (d2(4, 2), DualProfile(Profile(2, (1.0, 0.3)))),
]
MODEL_IDS = ["d1:3", "d2:4:2", "d2:8:3", "cartan3", "d2:4:2-dual"]


def _operator_rows(model):
    """Two leaf points on each of 3 leaves in [0.3, pi/d - 0.3]."""
    hi = math.pi / model.d - 0.3
    return np.concatenate([random_leaf_points(model, float(t), 2, seed=20 + i)
                           for i, t in enumerate(np.linspace(0.3, hi, 3))])


@pytest.mark.parametrize("model,profile", MODEL_PROFILES, ids=MODEL_IDS)
def test_fd_indicatrix_operators_keep_one_point_bits(model, profile):
    # all points take one q-form pass; every value must be the one its
    # one-point call gives, to the last bit
    nm, us = _norm(model, profile), _operator_rows(model)
    grads, laps = fd_indicatrix_operators(nm, us)
    assert grads.shape == laps.shape == (6,)
    for u, g, lap in zip(us, grads, laps):
        assert fd_indicatrix_operators(nm, u) == (g, lap)
        assert [v.tolist() for v in fd_indicatrix_operators(nm, u[None])] == [[g], [lap]]
        assert fd_indicatrix_laplacian_t(nm, u) == lap


@pytest.mark.parametrize("model,profile", MODEL_PROFILES, ids=MODEL_IDS)
def test_indicatrix_operators_match_the_fd_flux_oracle(model, profile):
    # an independent check at FD accuracy: the per-point loop of dt = w/r,
    # the closed G and a fourth-order difference of the flux, which read
    # 1.5e-11 of |grad t|^2 at most here; grad t's norm has no difference
    nm, us = _norm(model, profile), _operator_rows(model)
    grads, laps = fd_indicatrix_operators(nm, us)
    for u, g, lap in zip(us, grads, laps):
        g_fd, lap_fd = indicatrix_operators_fd(nm, u)
        assert abs(g_fd - g) <= 1e-13 * g
        assert abs(lap_fd - lap) <= 1e-9 * g


@pytest.mark.parametrize("kind", ["profile", "dual", "sector"])
@pytest.mark.parametrize("model", EXACT_MODELS, ids=lambda m: m.describe())
def test_indicatrix_operators_match_the_closed_forms(model, kind):
    # Delta t and |grad t|^2 from the q-form pass against the frame
    # volume-element form and 4 f^2 / gap, two closed forms derived apart,
    # at the rows' own t; they read within 1.0e-14 relative (d2:8:3's dual)
    nm = _norm(model, _kinds(CURVED[model.d])[kind])
    X = 1.7 * _rows(model)
    grads, laps = fd_indicatrix_operators(nm, X)
    for t, g, lap in zip(t_coord(model, X).t.tolist(), grads, laps):
        assert abs(g - indicatrix_grad_t_norm(nm, t)) <= 1e-13 * g
        closed = indicatrix_laplacian_t(nm, t)
        assert abs(lap - closed) <= 1e-13 * abs(closed)


def test_indicatrix_operators_match_the_mpmath_oracle():
    # 40-digit mpmath.diff of E and t, with each model's p written out
    # (mp_oracles), at one leaf point per model: within 16 ulps (5.6 read,
    # d2:8:3's grad norm); the closed forms at the point's t within 64 (24.8
    # read, cartan3's Laplacian).  The oracle takes ~0.5 s, d2:8:3 0.33 s
    pytest.importorskip("mpmath")
    from mp_oracles import indicatrix_operators
    for model in EXACT_MODELS:
        profile = CURVED[model.d]
        nm = _norm(model, profile)
        u = random_leaf_points(model, 0.37, 1, seed=1)[0]
        want = indicatrix_operators(model.d, model.k, profile.cos_coeffs, u)
        t = t_coord(model, u).t
        closed = indicatrix_grad_t_norm(nm, t), indicatrix_laplacian_t(nm, t)
        for got, ulps in ((fd_indicatrix_operators(nm, u), 16), (closed, 64)):
            for a, b in zip(got, want):
                assert abs(a - b) <= ulps * EPS * abs(b), (model.describe(), got, want)


@pytest.mark.parametrize("model,profile", MODEL_PROFILES[:4], ids=MODEL_IDS[:4])
def test_fd_indicatrix_laplacian_near_the_focal_ends(model, profile):
    # at the 0.02 leaf margin that the commands draw from, the exact
    # Laplacian reads within 9.6e-15 relative (cartan3); the FD flux was
    # held to 2e-9 absolute
    nm = _norm(model, profile)
    t = DEFAULT_FOCAL_GUARD + 0.02
    for t in (t, math.pi / model.d - t):
        us = random_leaf_points(model, t, 3, seed=5)
        _, laps = fd_indicatrix_operators(nm, us)
        closed = indicatrix_laplacian_t(nm, t)
        assert np.max(np.abs(laps - closed)) <= 1e-13 * abs(closed)


def test_fd_indicatrix_operators_make_one_polar_pass(monkeypatch):
    # of the input rows (a point's on floats), whose q-form pass gives G, T,
    # dt and Hess t
    model, profile = MODEL_PROFILES[2]
    nm, n = _norm(model, profile), model.n
    us = random_leaf_points(model, 0.6, 2, seed=4)
    calls, one = [], foliation._polar
    monkeypatch.setattr(foliation, "_polar",
                        lambda m, x, *a: calls.append(np.shape(x)) or one(m, x, *a))
    fd_indicatrix_operators(nm, us)
    assert calls == [(2, n)]
    calls.clear()
    fd_indicatrix_operators(nm, us[0])
    assert calls == [(n,)]


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
    # the indicatrix operators raise it at a point and in rows, as their
    # stencil's frame did
    for pts in (x, np.stack([x, 1.1 * _operator_rows(model)[0]])):
        with pytest.raises(FocalProximityError, match="degenerates on the focal set"):
            fd_indicatrix_operators(nm, pts)


@pytest.mark.parametrize("model,profile", MODEL_PROFILES[:4], ids=MODEL_IDS[:4])
def test_closed_frame_matrix_takes_the_frame_its_spectrum_formed(monkeypatch,
                                                                 model, profile):
    # its focal test is the frame's: after shape_spectrum at the point, as
    # in `isonorm tensor` and field-sweep, the model's kept w serves it
    nm = _norm(model, profile)
    x = 1.7 * random_leaf_points(model, 0.4, 2, seed=8)
    spec = shape_spectrum(model, x[0])
    monkeypatch.setattr(foliation, "_unit_w", lambda *a: pytest.fail("formed w"))
    M = closed_frame_matrix(nm, x[0], spec)
    monkeypatch.undo()
    t = t_coord(model, x[0]).t
    f0, f1, f2 = profile.jet(t, 2)
    assert (M[0, 0], M[0, 1], M[1, 0], M[1, 1]) == (2.0 * f0, f1, f1, f2 + 2.0 * f0)
    # each shape eigenspace takes the closed kappa, not the eigensolver's
    assert M[2:, 2:].tolist() == np.diag([
        2.0 * f0 + f1 / math.tan(t + e.k * math.pi / model.d)
        for e in spec for _ in range(e.multiplicity)]).tolist()
    with pytest.raises(FocalProximityError) as err:
        closed_frame_matrix(nm, 1.3 * np.eye(model.n)[0], [])
    assert str(err.value) == "t direction degenerates on the focal set"
    with pytest.raises(ValueError) as err:
        closed_frame_matrix(nm, x, spec)
    assert str(err.value) == (f"closed_frame_matrix takes one point of shape "
                              f"({model.n},), not (2, {model.n})")


@pytest.mark.parametrize("model,profile", MODEL_PROFILES[:4], ids=MODEL_IDS[:4])
def test_frame_functions_take_only_the_models_spectrum(model, profile):
    # an empty spectrum, or another model's, gave a frame of the wrong size
    # (cartan3: a 2 x 2 matrix, a (5, 2) basis); they are checked after the
    # frame, so the origin and focal-cone errors come first
    nm = _norm(model, profile)
    x = 1.7 * random_leaf_points(model, 0.4, 1, seed=8)[0]
    other = d2(8, 3) if model != d2(8, 3) else cartan3()
    foreign = shape_spectrum(other, random_leaf_points(other, 0.4, 1, seed=8)[0])
    for call in (frame_basis, closed_frame_matrix):
        for spectrum in ([], foreign, shape_spectrum(model, x)[:-1]):
            with pytest.raises(ValueError, match=r"spectrum pairs .* are not "
                               + re.escape(f"{model.describe()}'s {multiplicities(model)}")):
                call(nm, x, spectrum)
        assert call(nm, x, shape_spectrum(model, x)).shape[0] == model.n


def test_dimension_arrays_are_built_once_read_only_and_per_dimension():
    # keyed on the int n alone; a writable shared array would let one
    # caller change every later frame of its dimension
    built = {n: _arrays(n) for n in (3, 4, 5, 8)}
    for n, arrays in built.items():
        assert arrays is _arrays(n)
        for name, a in arrays.items():
            if isinstance(a, np.ndarray):
                assert not a.flags.writeable, name
                with pytest.raises(ValueError, match="read-only"):
                    a[...] = 0
        assert arrays["eye"].tolist() == np.eye(n).tolist()
    # a model of another n gets its own arrays, and its frames their shape
    assert built[4]["eye"] is not built[8]["eye"]
    for model, profile in MODEL_PROFILES[1:3]:
        X = random_leaf_points(model, 0.6, 2, seed=6)
        assert closed_fundamental_tensor(_norm(model, profile), X).shape == (
            2, model.n, model.n)


def test_fd_indicatrix_operators_take_no_rows():
    model, profile = MODEL_PROFILES[3]
    grads, laps = fd_indicatrix_operators(_norm(model, profile),
                                          np.empty((0, model.n)))
    assert grads.shape == laps.shape == (0,)


def test_isoparametric_check_makes_one_qform_pass(monkeypatch, tmp_path,
                                                  capsys):
    qform_rows, energy_calls, w_rows = [], [], []
    qform, one_energy, unit_w = hessian._qform_tensors, hessian.energy, foliation._unit_w
    monkeypatch.setattr(hessian, "_qform_tensors",
                        lambda nm, u, p, t: qform_rows.append(len(u))
                        or qform(nm, u, p, t))
    monkeypatch.setattr(foliation, "_unit_w",
                        lambda m, u, *a: w_rows.append(len(u)) or unit_w(m, u, *a))
    monkeypatch.setattr(hessian, "energy",
                        lambda nm, x: energy_calls.append(len(x))
                        or one_energy(nm, x))
    save_profile(Profile(2, (1.0, 0.2)), tmp_path / "f.json")
    code = cli.main(["isoparametric-check", "--profile", str(tmp_path / "f.json"),
                     "--model", "d2:8:3"])
    capsys.readouterr()
    assert code == 0
    # 5 leaves x 3 points, no stencil rows; w of the leaf draw's normal
    # planes, then of the frame's focal test
    assert qform_rows == [5 * 3]
    assert w_rows == [5 * 3, 5 * 3]
    assert energy_calls == []

