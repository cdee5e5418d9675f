"""Foliation models: leaf coordinates, frames, shape spectra, sampling."""

import math
import re

import numpy as np
import pytest

from isonorm import foliation
from isonorm.foliation import (FocalProximityError, _poly, cartan3, d1, d2,
                               focal_dimensions, multiplicities,
                               normal_plane_basis, parse_model,
                               random_leaf_points, shape_spectrum, t_coord,
                               unit_w)
from isonorm.hessian import InducedNorm, energy, frame_basis, riemann_fd, value
from isonorm.profile import Profile

MODELS = (d1(3), d2(4, 2), cartan3())


# ------------------------------------------------------------------ models

def test_parse_model():
    assert parse_model("d1:4").describe() == "d1:4"
    assert parse_model("d2:6:3").describe() == "d2:6:3"
    assert parse_model("cartan3").describe() == "cartan3"


@pytest.mark.parametrize("bad", ["d3:5", "d1:2", "d2:4", "d2:4:0", "x", "d1:a"])
def test_parse_model_rejects(bad):
    with pytest.raises(ValueError):
        parse_model(bad)


def test_multiplicities():
    assert multiplicities(d1(5)) == ((0, 3),)
    assert multiplicities(d2(6, 2)) == ((0, 3), (1, 1))
    assert multiplicities(cartan3()) == ((0, 1), (1, 1), (2, 1))


def test_multiplicity_sum_is_leaf_dimension():
    for m in MODELS:
        assert sum(mk for _, mk in multiplicities(m)) == m.n - 2


def test_focal_dimensions():
    # dim M_0 = n - 2 - m_0 and dim M_{pi/d} = n - 2 - m_{d-1} give the
    # known table: points for d = 1, the spheres S^{k-1} and S^{n-k-1} for
    # d = 2 and the Veronese surfaces for the Cartan cubic
    models = ([d1(n) for n in range(3, 11)]
              + [d2(n, k) for n in range(4, 11) for k in range(1, n)]
              + [cartan3()])
    for m in models:
        table = ((m.k - 1, m.n - m.k - 1) if m.d == 2
                 else (0, 0) if m.d == 1 else (2, 2))
        assert focal_dimensions(m) == table, m.describe()


# ----------------------------------------------------------------- t_coord

def test_t_coord_d1():
    m = d1(3)
    t = 0.7
    x = np.array([math.cos(t), math.sin(t), 0.0])
    rt = t_coord(m, 2.0 * x)
    assert rt.r == pytest.approx(2.0)
    assert rt.t == pytest.approx(t, abs=1e-12)


def test_cartan_anchors():
    m = cartan3()
    e0 = np.zeros(5); e0[0] = 1.0
    e1 = np.zeros(5); e1[1] = 1.0
    assert _poly(m, e0) == pytest.approx(1.0, abs=1e-12)
    assert _poly(m, e1) == pytest.approx(0.0, abs=1e-12)
    # cos 3t = 0 at the mid-sector leaf
    assert t_coord(m, e1).t == pytest.approx(math.pi / 6, abs=1e-12)


def test_t_coord_homogeneous_in_r():
    m = d2(4, 2)
    x = random_leaf_points(m, 0.6, 1, seed=5)[0]
    assert t_coord(m, 3.7 * x).t == pytest.approx(t_coord(m, x).t, abs=1e-12)


def test_t_coord_rejects_a_point_of_another_dimension():
    m = d2(4, 2)
    nm = InducedNorm(m, Profile(2, (1.0, 0.2)))
    for x in (np.ones(3), np.ones((2, 5)), np.ones((1, 2, 4)), 1.0):
        with pytest.raises(ValueError, match=r"not \(4,\) or \(m, 4\)"):
            t_coord(m, x)
    with pytest.raises(ValueError, match=r"shape \(3,\), not \(4,\)"):
        energy(nm, np.ones(3))


def test_t_coord_rejects_a_non_finite_entry():
    m = d2(4, 2)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="not finite"):
            t_coord(m, [bad, 1.0, 0.0, 0.0])
        with pytest.raises(ValueError, match="not finite"):
            t_coord(m, [[1.0, 0.0, 0.0, 0.0], [0.0, bad, 0.0, 0.0]])
    nm = InducedNorm(m, Profile(2, (1.0, 0.2)))
    with pytest.raises(ValueError, match="not finite"):
        frame_basis(nm, [math.nan, 1.0, 0.0, 0.0], [])


def test_t_coord_rejects_a_sum_of_squares_that_overflows():
    m = d2(4, 2)
    nm = InducedNorm(m, Profile(2, (1.0, 0.2)))
    x = np.array([1e200, 1e200, 0.0, 0.0])  # every entry finite, |x|^2 not
    for pts in (x, np.array([[1.0, 0.0, 0.0, 0.0], x])):  # no warning first
        for call in (lambda p: t_coord(m, p), lambda p: energy(nm, p),
                     lambda p: value(nm, p)):
            with pytest.raises(ValueError, match="overflows"):
                call(pts)


def test_t_coord_rejects_the_origin():
    m = d2(4, 2)
    for x in (np.zeros(4), np.array([[1.0, 0.0, 0.0, 0.0], [0.0] * 4])):
        with pytest.raises(ValueError, match="t undefined at the origin"):
            t_coord(m, x)


def test_shape_spectrum_makes_one_polar_pass(monkeypatch):
    # t_coord's pass of x, whose u and p the normal w and S both take
    m = d2(8, 3)
    x = 1.7 * random_leaf_points(m, 0.6, 1, seed=3)[0]
    calls = []
    for name in ("_polar", "_poly"):
        one = getattr(foliation, name)
        monkeypatch.setattr(foliation, name, lambda m, x, one=one, name=name:
                            calls.append(name) or one(m, x))
    shape_spectrum(m, x)
    assert calls == ["_polar", "_poly"]


# ------------------------------------------------------------------ frames

def test_unit_w_properties():
    for m in MODELS:
        x = random_leaf_points(m, 0.4, 1, seed=2)[0]
        w = unit_w(m, x)
        assert np.linalg.norm(w) == pytest.approx(1.0, abs=1e-10)
        assert float(x @ w) == pytest.approx(0.0, abs=1e-10)
        # moving along w advances the leaf parameter at unit rate
        h = 1e-6
        tp = t_coord(m, math.cos(h) * x + math.sin(h) * w).t
        tm = t_coord(m, math.cos(h) * x - math.sin(h) * w).t
        assert (tp - tm) / (2 * h) == pytest.approx(1.0, abs=1e-6)


def test_normal_geodesic_passes_through_x():
    for m in MODELS:
        t = 0.45
        x = random_leaf_points(m, t, 1, seed=3)[0]
        basis = normal_plane_basis(m, x)
        assert np.allclose(math.cos(t) * basis.v1 + math.sin(t) * basis.v2, x,
                           atol=1e-10)
        # the circle gamma(s) = cos s v1 + sin s v2 is a normal geodesic:
        # t(gamma(s)) = s
        for s in (0.2, 0.6, 0.9):
            gamma = math.cos(s) * basis.v1 + math.sin(s) * basis.v2
            assert t_coord(m, gamma).t == pytest.approx(s, abs=1e-9)


def test_normal_plane_basis_orthonormal():
    m = cartan3()
    x = random_leaf_points(m, 0.5, 1, seed=11)[0]
    basis = normal_plane_basis(m, x)
    assert float(basis.v1 @ basis.v1) == pytest.approx(1.0, abs=1e-12)
    assert float(basis.v2 @ basis.v2) == pytest.approx(1.0, abs=1e-12)
    assert float(basis.v1 @ basis.v2) == pytest.approx(0.0, abs=1e-12)


# ---------------------------------------------------------- shape operator

def test_shape_spectrum_eigenvalues():
    for m in MODELS:
        t = 0.5
        x = random_leaf_points(m, t, 1, seed=4)[0]
        spec = shape_spectrum(m, x)
        assert sum(e.multiplicity for e in spec) == m.n - 2
        for e in spec:
            kappa = 1.0 / math.tan(t + e.k * math.pi / m.d)
            assert e.kappa == pytest.approx(kappa, abs=1e-12)


@pytest.mark.parametrize("scale,ok", [(1.0 + 5e-6, True), (1.0 - 5e-6, True),
                                      (1.0 + 2e-5, False), (1.0 - 2e-5, False)])
def test_shape_spectrum_accepts_what_allclose_accepts(monkeypatch, scale, ok):
    # a relative error of 5e-6 in every eigenvalue is inside np.allclose's
    # 1e-8 + 1e-5 |cot|, one of 2e-5 outside it
    m = d2(8, 3)
    x = random_leaf_points(m, 0.6, 1, seed=3)[0]
    one = foliation._shape_operator
    monkeypatch.setattr(foliation, "_shape_operator",
                        lambda *args: scale * one(*args))
    if ok:
        shape_spectrum(m, x)
    else:
        with pytest.raises(RuntimeError, match="are not cot"):
            shape_spectrum(m, x)


def test_shape_spectrum_basis_tangent():
    m = d2(5, 2)
    x = random_leaf_points(m, 0.7, 1, seed=9)[0]
    w = unit_w(m, x)
    for e in shape_spectrum(m, x):
        for v in e.basis:
            assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-8)
            assert float(v @ x) == pytest.approx(0.0, abs=1e-7)
            assert float(v @ w) == pytest.approx(0.0, abs=1e-7)


# --------------------------------------------------------------- sampling

def test_random_leaf_points_on_leaf():
    m = cartan3()
    pts = random_leaf_points(m, 0.35, 6, seed=0)
    assert pts.shape == (6, 5)
    for x in pts:
        assert np.linalg.norm(x) == pytest.approx(1.0, abs=1e-12)
        assert t_coord(m, x).t == pytest.approx(0.35, abs=1e-10)


def test_random_leaf_points_deterministic():
    m = d1(4)
    a = random_leaf_points(m, 0.8, 3, seed=42)
    b = random_leaf_points(m, 0.8, 3, seed=42)
    assert np.array_equal(a, b)


def test_random_leaf_points_interior_only():
    with pytest.raises(ValueError):
        random_leaf_points(cartan3(), 2.0, 1)


SWEEP_MODELS = (d1(3), d2(4, 2), d2(8, 3), cartan3())


@pytest.mark.parametrize("m", SWEEP_MODELS, ids=lambda m: m.describe())
def test_random_leaf_points_scalar_t_is_the_broadcast_array(m):
    for i, k in enumerate((1, 2, 7)):
        t = (0.2 + 0.25 * i) * math.pi / m.d
        a = random_leaf_points(m, t, k, seed=40 + i)
        b = random_leaf_points(m, np.full(k, t), k, seed=40 + i)
        assert np.array_equal(a.view(np.int64), b.view(np.int64))


@pytest.mark.parametrize("m", SWEEP_MODELS, ids=lambda m: m.describe())
def test_random_leaf_points_walks_each_point_to_its_own_t(m):
    ts = np.linspace(0.08, math.pi / m.d - 0.08, 12)[::-1]
    pts = random_leaf_points(m, ts, len(ts), seed=3)
    assert pts.shape == (len(ts), m.n)
    assert np.max(np.abs(np.linalg.norm(pts, axis=1) - 1.0)) < 1e-14
    assert np.max(np.abs(t_coord(m, pts).t - ts)) < 1e-14


def test_random_leaf_points_rejects_bad_counts_and_shapes():
    m = cartan3()
    with pytest.raises(ValueError, match="count must be at least 0, got -1"):
        random_leaf_points(m, 0.5, -1)
    assert random_leaf_points(m, 0.5, 0).shape == (0, 5)
    for t in (np.full(2, 0.5), np.full((3, 1), 0.5), np.array([0.5])):
        with pytest.raises(ValueError, match="shape"):
            random_leaf_points(m, t, 3)
    # one leaf parameter out of (0, pi/d) rejects the whole array
    for bad in (0.0, math.pi / 3, 2.0, math.nan):
        with pytest.raises(ValueError, match="interior leaf parameter"):
            random_leaf_points(m, np.array([0.5, bad, 0.6]), 3)


@pytest.mark.parametrize("m", MODELS, ids=lambda m: m.describe())
def test_random_leaf_points_rejects_wide_guard(m):
    half = math.pi / (2 * m.d)
    # no leaf parameter is more than pi/(2d) from both focal values
    with pytest.raises(FocalProximityError, match="pi/\\(2d\\)"):
        random_leaf_points(m, half, 1, delta=half)
    # an admissible band too thin to hit: the draws give out, not hang
    with pytest.raises(FocalProximityError, match="draws"):
        random_leaf_points(m, half, 1, delta=half - 1e-9)
    # a NaN guard is named at once, not drawn against until the draws give out
    with pytest.raises(FocalProximityError, match="delta=nan .* pi/\\(2d\\)"):
        random_leaf_points(m, half, 1, delta=math.nan)


def test_focal_proximity_guard():
    m = cartan3()
    x = np.zeros(5); x[0] = 1.0  # the t=0 focal leaf itself
    with pytest.raises(FocalProximityError):
        normal_plane_basis(m, x)


@pytest.mark.parametrize("m", MODELS, ids=lambda m: m.describe())
def test_a_point_on_a_focal_set_gets_the_guard_band_error(m):
    # the frame's guard comes before w, which degenerates there with an
    # error that names no guard
    e = np.eye(m.n)
    # t = 0 at e_1 on every model, and t = pi/d at -e_1 (d odd) or e_n (d = 2)
    for x in (e[0], e[-1] if m.d == 2 else -e[0]):
        for call in (lambda x: normal_plane_basis(m, x),
                     lambda x: normal_plane_basis(m, np.array([x, x])),
                     lambda x: shape_spectrum(m, 1.7 * x)):
            with pytest.raises(FocalProximityError, match="inside the focal guard band"):
                call(x)


@pytest.mark.parametrize("delta", [-1.0, -1e-3, math.nan])
def test_a_negative_or_nan_focal_guard_is_named(delta):
    # a negative delta widens the guard band past the focal values: random
    # leaf points were drawn with it, or the check of t spoke first
    m = d2(4, 2)
    with pytest.raises(FocalProximityError,
                       match=re.escape(f"delta={delta} must be in [0, pi/(2d))")):
        random_leaf_points(m, 5.0, 1, delta=delta)
    x = random_leaf_points(m, 0.6, 2, seed=1)
    nm = InducedNorm(m, Profile(2, (1.0, 0.2)))
    for call in (lambda: normal_plane_basis(m, x, delta),
                 lambda: shape_spectrum(m, x[0], delta),
                 lambda: riemann_fd(nm, x, delta)):
        with pytest.raises(FocalProximityError,
                           match=re.escape(f"delta={delta} must be at least 0")):
            call()
