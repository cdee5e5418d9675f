"""Foliation models: leaf coordinates, frames, shape spectra, sampling."""

import math

import numpy as np
import pytest

from isonorm.foliation import (FocalProximityError, cartan3, d1, d2,
                               eval_poly, focal_dimensions, multiplicities,
                               normal_geodesic, normal_plane_basis,
                               parse_model, random_leaf_points,
                               shape_spectrum, t_coord, unit_w)

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
    # dim M_k = n - 2 - m_k
    for m in MODELS:
        mult = dict(multiplicities(m))
        d0, d1_ = focal_dimensions(m)
        assert d0 == m.n - 2 - mult[0]
        assert d1_ == m.n - 2 - mult[max(mult)]


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
    assert eval_poly(m, e0) == pytest.approx(1.0, abs=1e-12)
    assert eval_poly(m, e1) == pytest.approx(0.0, abs=1e-12)
    # cos 3t = 0 at the mid-sector leaf
    assert t_coord(m, e1).t == pytest.approx(math.pi / 6, abs=1e-12)


def test_t_coord_homogeneous_in_r():
    m = d2(4, 2)
    x = random_leaf_points(m, 0.6, 1, seed=5)[0]
    assert t_coord(m, 3.7 * x).t == pytest.approx(t_coord(m, x).t, abs=1e-12)


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
        gamma = normal_geodesic(m, x)
        assert np.allclose(gamma(t), x, atol=1e-10)
        # the circle stays a normal geodesic: t(gamma(s)) = s
        for s in (0.2, 0.6, 0.9):
            assert t_coord(m, gamma(s)).t == pytest.approx(s, abs=1e-9)


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


@pytest.mark.parametrize("m", MODELS, ids=lambda m: m.describe())
def test_random_leaf_points_rejects_wide_guard(m):
    half = math.pi / (2 * m.d)
    # no leaf parameter is more than pi/(2d) from both focal values
    with pytest.raises(FocalProximityError, match="pi/\\(2d\\)"):
        random_leaf_points(m, half, 1, delta=half)
    # an admissible band too thin to hit: the draws give out, not hang
    with pytest.raises(FocalProximityError, match="draws"):
        random_leaf_points(m, half, 1, delta=half - 1e-9)


def test_focal_proximity_guard():
    m = cartan3()
    x = np.zeros(5); x[0] = 1.0  # the t=0 focal leaf itself
    with pytest.raises(FocalProximityError):
        normal_plane_basis(m, x)
