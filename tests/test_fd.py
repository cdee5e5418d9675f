"""FD stencils evaluated in one call, and the array energy they call.

The references here evaluate one point at a time, as the stencils and the
energy did before they took arrays; every comparison is bit for bit.  The
FD fundamental tensor is also the oracle of the closed-form one.
"""

import math
from itertools import combinations_with_replacement, permutations, product

import numpy as np
import pytest

from isonorm.fd import gradient_fd, hessian_fd, third_tensor_fd
from isonorm.foliation import (SQ3, FocalProximityError, parse_model,
                               random_leaf_points, t_coord)
from isonorm.hessian import (InducedNorm, closed_fundamental_tensor, energy,
                             fd_fundamental_tensor)
from isonorm.isometry import Sector, bump_profile, glue_construct
from isonorm.planar import DualProfile
from isonorm.profile import Profile

MODELS = ("d1:3", "d2:4:2", "d2:8:3", "cartan3")
COEFFS = {1: (0.5, 0.03, 0.01), 2: (1.0, 0.2), 3: (0.5, 0.02)}


# --------------------------------------------- one-point references (old)

class _Lattice:
    def __init__(self, fun, x, step):
        self.fun, self.x, self.step = fun, np.asarray(x, float), float(step)
        self.cache = {}

    def __call__(self, *offset):
        if offset not in self.cache:
            pt = self.x + self.step * np.asarray(offset, dtype=float)
            self.cache[offset] = float(self.fun(pt))
        return self.cache[offset]


def _off(n, entries):
    off = [0] * n
    for axis, val in entries.items():
        off[axis] += val
    return tuple(off)


def point_gradient(fun, x, step):
    lat, n = _Lattice(fun, x, step), len(x)
    return np.array([(lat(*_off(n, {i: 1})) - lat(*_off(n, {i: -1})))
                     / (2 * step) for i in range(n)])


def point_hessian(fun, x, step):
    lat, n = _Lattice(fun, x, step), len(x)
    h2 = step * step
    H = np.empty((n, n))
    f0 = lat(*([0] * n))
    for i in range(n):
        H[i, i] = (lat(*_off(n, {i: 1})) - 2.0 * f0 + lat(*_off(n, {i: -1}))) / h2
    for i in range(n):
        for j in range(i + 1, n):
            H[i, j] = H[j, i] = (
                lat(*_off(n, {i: 1, j: 1})) - lat(*_off(n, {i: 1, j: -1}))
                - lat(*_off(n, {i: -1, j: 1}))
                + lat(*_off(n, {i: -1, j: -1}))) / (4.0 * h2)
    return H


def point_third(fun, x, step):
    lat, n = _Lattice(fun, x, step), len(x)
    h3 = step ** 3
    T = np.zeros((n, n, n))

    def entry(i, j, k):
        if i == j == k:
            return (lat(*_off(n, {i: 2})) - 2.0 * lat(*_off(n, {i: 1}))
                    + 2.0 * lat(*_off(n, {i: -1}))
                    - lat(*_off(n, {i: -2}))) / (2.0 * h3)
        if i == j:
            return (lat(*_off(n, {i: 1, k: 1})) - 2.0 * lat(*_off(n, {k: 1}))
                    + lat(*_off(n, {i: -1, k: 1}))
                    - lat(*_off(n, {i: 1, k: -1}))
                    + 2.0 * lat(*_off(n, {k: -1}))
                    - lat(*_off(n, {i: -1, k: -1}))) / (2.0 * h3)
        total = 0.0
        for si, sj, sk in product((1, -1), repeat=3):
            total += si * sj * sk * lat(*_off(n, {i: si, j: sj, k: sk}))
        return total / (8.0 * h3)

    for i, j, k in combinations_with_replacement(range(n), 3):
        if i == j == k or i == j:
            val = entry(i, i, k)
        elif j == k:
            val = entry(j, j, i)
        else:
            val = entry(i, j, k)
        for perm in set(permutations((i, j, k))):
            T[perm] = val
    return T


def point_t(m, x):
    """t at one point with scalar arithmetic throughout."""
    u = x / float(np.linalg.norm(x))
    if m.d == 1:
        p = float(u[0])
    elif m.d == 2:
        p = float(np.dot(u[:m.k], u[:m.k]) - np.dot(u[m.k:], u[m.k:]))
    else:
        a, b, x1, y, z = u
        p = float(a ** 3 - 3.0 * a * b * b
                  + 1.5 * a * (x1 * x1 + y * y - 2.0 * z * z)
                  + 1.5 * SQ3 * b * (x1 * x1 - y * y) + 3.0 * SQ3 * x1 * y * z)
    return math.acos(min(1.0, max(-1.0, p))) / m.d


def point_energy(nm, x):
    """r^2 f(t) at one point with scalar arithmetic throughout."""
    return float(np.dot(x, x)) * nm.profile.evaluate(point_t(nm.foliation, x), 0)


# ----------------------------------------------------------------- inputs

# glue bases (humps) and break angles, round around each break; d = 3 is
# the glued cartan3 demo of scripts/isometry_gallery.py
GLUE = {1: ([(1.0, 0.8)], 2.0), 2: ([(0.5, 0.4)], 0.9),
        3: ([(0.24, 0.4), (0.78, 0.36)], 0.52)}


@pytest.fixture(scope="module")
def glued_h():
    # each h is a SectorProfile with a scaled-profile and an exact-dual piece
    out = {}
    for d, (humps, brk) in GLUE.items():
        res = glue_construct(bump_profile(d, humps=humps),
                             [Sector(0.0, brk, "scale"),
                              Sector(brk, math.pi / d, "legendre-scale")])
        out[d] = res.triple.h
    return out


def _profiles(d, glued_h):
    base = Profile(d, COEFFS[d])
    return {"cosine": base, "dual": DualProfile(base), "sector": glued_h[d]}


def _cloud(m, seed):
    # leaf points at several t, scaled, plus small stencil-like shifts
    rng = np.random.default_rng(seed)
    pts = [random_leaf_points(m, t * math.pi / m.d, 3, seed=seed)
           for t in (0.15, 0.4, 0.7, 0.9)]
    pts = np.concatenate(pts) * rng.uniform(0.5, 1.5, (12, 1))
    return np.concatenate([pts, pts + 1e-3 * rng.standard_normal(pts.shape)])


# ------------------------------------------------------------------- tests

@pytest.mark.parametrize("spec", MODELS)
def test_array_energy_has_the_bits_of_one_point_energy(spec, glued_h):
    m = parse_model(spec)
    X = _cloud(m, 5)
    for name, prof in _profiles(m.d, glued_h).items():
        nm = InducedNorm(m, prof, validate=False)
        got = energy(nm, X)
        assert got.shape == (len(X),), name
        assert np.array_equal(got, [point_energy(nm, x) for x in X]), name
        assert np.array_equal(got, [energy(nm, x) for x in X]), name


@pytest.mark.parametrize("spec", MODELS)
def test_array_t_coord_has_the_bits_of_one_point_calls(spec):
    m = parse_model(spec)
    X = np.random.default_rng(2).standard_normal((3000, m.n))
    r, t = t_coord(m, X)
    assert np.array_equal(r, [np.linalg.norm(x) for x in X])
    assert np.array_equal(t, [point_t(m, x) for x in X])
    assert np.array_equal(t, [t_coord(m, x).t for x in X])


def test_energy_is_zero_at_the_origin():
    nm = InducedNorm(parse_model("d1:3"), Profile(1, COEFFS[1]))
    assert energy(nm, np.zeros(3)) == 0.0
    assert np.array_equal(energy(nm, np.array([[0.0, 0, 0], [2.0, 0, 0]])),
                          [0.0, 4.0 * nm.profile.evaluate(0.0, 0)])


@pytest.mark.parametrize("spec", MODELS)
def test_stencils_have_the_bits_of_the_point_lattice(spec, glued_h):
    m = parse_model(spec)
    x = 1.2 * random_leaf_points(m, 0.45 * math.pi / m.d, 1, seed=3)[0]
    for name, prof in _profiles(m.d, glued_h).items():
        nm = InducedNorm(m, prof, validate=False)
        rows = lambda X: energy(nm, X)
        point = lambda p: point_energy(nm, p)
        assert np.array_equal(gradient_fd(rows, x, 1e-6),
                              point_gradient(point, x, 1e-6)), name
        assert np.array_equal(hessian_fd(rows, x, 2e-4),
                              point_hessian(point, x, 2e-4)), name
        assert np.array_equal(third_tensor_fd(rows, x, 1e-3),
                              point_third(point, x, 1e-3)), name


@pytest.mark.parametrize("spec", MODELS)
def test_tensors_of_many_points_have_the_bits_of_one_point_calls(spec,
                                                                  glued_h):
    m = parse_model(spec)
    X = _cloud(m, 7)
    for name, prof in _profiles(m.d, glued_h).items():
        nm = InducedNorm(m, prof, validate=False)
        calls = []
        got = fd_fundamental_tensor(nm, X)
        # one energy call for all the stencils
        hessian_fd(lambda P: calls.append(len(P)) or energy(nm, P), X,
                   np.full(len(X), 1e-4))
        assert calls == [len(X) * (1 + 2 * m.n * m.n)], name
        for i, x in enumerate(X):
            one = fd_fundamental_tensor(nm, x)
            assert np.array_equal(got.matrix[i], one.matrix), name
            assert np.array_equal(got.eigenvalues[i], one.eigenvalues), name
            assert got.positive_definite[i] == one.positive_definite, name


@pytest.mark.parametrize("n", (1, 2, 3, 5))
def test_stencils_on_a_polynomial_field(n):
    rng = np.random.default_rng(n)
    A = rng.standard_normal((n, n, n))
    cubic = lambda X: np.einsum("...i,...j,...k,ijk->...", X, X, X, A)
    point = lambda p: float(cubic(p))
    x = rng.standard_normal(n)
    for stencil, ref, step in ((gradient_fd, point_gradient, 1e-3),
                               (hessian_fd, point_hessian, 1e-3),
                               (third_tensor_fd, point_third, 1e-2)):
        assert np.array_equal(stencil(cubic, x, step), ref(point, x, step))
    sym = sum(A.transpose(p) for p in permutations(range(3)))
    np.testing.assert_allclose(third_tensor_fd(cubic, x, 1e-2), sym, atol=1e-8)


@pytest.mark.parametrize("stencil,points", [
    (gradient_fd, lambda n: 2 * n),
    (hessian_fd, lambda n: 1 + 2 * n * n),
    (third_tensor_fd, lambda n: 4 * n + 2 * n * (n - 1)
     + 8 * math.comb(n, 3)),
])
def test_each_stencil_calls_fun_once(stencil, points):
    for n in (1, 2, 5, 8):
        calls = []

        def fun(X):
            calls.append((len(X), len(np.unique(X, axis=0)), X.shape[1]))
            return np.cos(X).sum(axis=1)

        stencil(fun, np.linspace(0.1, 0.9, n))
        # one call, with each lattice point once
        assert calls == [(points(n), points(n), n)]


@pytest.mark.parametrize("spec", MODELS)
def test_closed_tensor_matches_the_fd_oracle(spec, glued_h):
    m = parse_model(spec)
    X = _cloud(m, 7)
    for name, prof in _profiles(m.d, glued_h).items():
        nm = InducedNorm(m, prof, validate=False)
        G = closed_fundamental_tensor(nm, X)
        F = fd_fundamental_tensor(nm, X).matrix
        assert np.max(np.abs(G - F)) <= 1e-6, name


@pytest.mark.parametrize("spec", MODELS)
def test_closed_tensor_rows_have_the_bits_of_one_row_calls(spec, glued_h):
    m = parse_model(spec)
    X = _cloud(m, 9)
    for name, prof in _profiles(m.d, glued_h).items():
        nm = InducedNorm(m, prof, validate=False)
        got = closed_fundamental_tensor(nm, X)
        assert got.shape == (len(X), m.n, m.n), name
        for i, x in enumerate(X):
            one_row = closed_fundamental_tensor(nm, X[i:i + 1])[0]
            assert np.array_equal(got[i], one_row), name
            assert np.array_equal(got[i], closed_fundamental_tensor(nm, x)), name


def test_closed_tensor_on_a_focal_cone_raises():
    for spec in MODELS:
        m = parse_model(spec)
        nm = InducedNorm(m, Profile(m.d, COEFFS[m.d]))
        focal = np.zeros(m.n)
        focal[0] = 2.0  # p = 1 there, so t = 0
        with pytest.raises(FocalProximityError):
            closed_fundamental_tensor(nm, focal)
        with pytest.raises(FocalProximityError):
            closed_fundamental_tensor(nm, np.stack([_cloud(m, 1)[0], focal]))


def test_sector_jet_on_an_array_has_the_bits_of_scalar_calls(glued_h):
    h = glued_h[3]
    ts = np.linspace(-0.3, 2.0 * math.pi / 3 + 0.3, 600)
    for k in range(3):
        jet = h.jet(ts, k)
        for order in range(k + 1):
            want = [h.jet(float(t), k)[order] for t in ts]
            assert np.array_equal(jet[order], want), (k, order)
