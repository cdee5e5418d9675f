"""Planar norms: values, tensors, Legendre duality, dual profiles."""

import copy
import json
import math
import pickle
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from isonorm import planar
from isonorm.fd import hessian_fd
from isonorm.planar import (DualProfile, PlanarNorm, dual_profile,
                            fundamental_tensor, indicatrix_point,
                            legendre_dual_jet, legendre_map, legendre_ode_rhs,
                            theta_legendre, value)
from isonorm.isometry import (IsometryTriple, ThetaMap, bump_profile, identity_map,
                              legendre_map_tag, ode_residuals, planar_lift_map,
                              theta_jet, triple_from_json_dict,
                              triple_to_json_dict)
from isonorm.profile import (ALLOWED_D, Profile, SectorProfile, chop_count,
                             dihedral_fold, is_minkowski, lobatto_fit,
                             profile_from_json_dict, sampled_profile)

ELLIPSE = PlanarNorm(Profile(2, (1.0, 0.2)))
ROUND = PlanarNorm(Profile(1, (0.5,)))

# frozen dual of 1 + 0.2 cos 2t (inverse quadratic form)
DUAL_C0 = 0.2604166666666667
DUAL_C1 = -0.05208333333333333


# ------------------------------------------------------------------ value

def test_value_quadratic_form():
    assert value(ELLIPSE, np.array([1.0, 0.0])) == pytest.approx(
        math.sqrt(2.4))
    assert value(ELLIPSE, np.array([0.0, 2.0])) == pytest.approx(
        2.0 * math.sqrt(1.6))
    assert value(ELLIPSE, np.zeros(2)) == 0.0


def test_value_homogeneous():
    x = np.array([0.3, -0.7])
    assert value(ELLIPSE, 2.5 * x) == pytest.approx(2.5 * value(ELLIPSE, x))


def test_value_rows_have_the_bits_of_one_point_calls():
    X = np.random.default_rng(5).standard_normal((40, 2))
    X[7] = 0.0
    base = Profile(2, (1.0, 0.15, 0.01))
    sector = SectorProfile(2, (0.7,), (base, Profile(2, (1.0, 0.1))))
    long = Profile(2, (1.0, 0.15, 0.01, 0.004, 0.001))
    for p in (base, long, sector, DualProfile(base)):
        nm = PlanarNorm(p)
        F = value(nm, X)
        assert F.shape == (40,) and F[7] == 0.0
        one = [value(nm, x) for x in X]
        assert all(type(v) is float for v in one)
        assert np.array_equal(F, one), type(p).__name__
        assert value(nm, np.zeros(2)) == 0.0
        assert np.array_equal(value(nm, np.zeros((3, 2))), np.zeros(3))


@pytest.mark.parametrize("bad", [[math.inf, 1.0], [math.nan, 1.0],
                                 [[0.3, -0.7], [1.0, math.inf], [0.0, 0.0]]],
                         ids=["inf", "nan", "rows-with-one-bad-row"])
def test_planar_entry_points_name_a_point_that_is_not_finite(bad):
    # value gave inf, legendre_map and the lift NaN with a RuntimeWarning,
    # fundamental_tensor a finite matrix; now the error of foliation's t_coord
    base = Profile(2, (1.0, 0.15, 0.01))
    sector = SectorProfile(2, (0.7,), (base, Profile(2, (1.0, 0.1))))
    long = Profile(2, (1.0, 0.15, 0.01, 0.004, 0.001))
    for p in (base, long, sector, DualProfile(base)):
        nm = PlanarNorm(p)
        lift = planar_lift_map(IsometryTriple(f=p, h=p, theta=identity_map()))
        for fun in (partial(value, nm), partial(fundamental_tensor, nm),
                    partial(legendre_map, nm), lift):
            with pytest.raises(ValueError, match="^t undefined: x is not finite$"):
                fun(np.array(bad))


@pytest.mark.parametrize("max_terms", [0, -1])
def test_dual_fit_rejects_max_terms_below_one(max_terms):
    # -1 sliced off the last DCT coefficient: a 511-term dual came back
    with pytest.raises(ValueError, match="max_terms must be at least 1"):
        dual_profile(PlanarNorm(Profile(2, (1.0, 0.2))), max_terms=max_terms)
    with pytest.raises(ValueError, match="max_terms"):
        lobatto_fit(2, np.ones(9), max_terms)


def test_invalid_profile_rejected():
    with pytest.raises(ValueError):
        PlanarNorm(Profile(2, (1.0, 1.1)))


# ----------------------------------------------------------------- tensor

def test_tensor_constant_for_quadratic():
    # E of 1 + 0.2 cos 2t is the quadratic form diag(2.4, 1.6)/2
    for x in ([1.0, 0.0], [0.3, 0.4], [-0.2, 1.1]):
        g = fundamental_tensor(ELLIPSE, np.array(x))
        assert np.allclose(g, np.diag([2.4, 1.6]), atol=1e-12)


@given(st.floats(0.1, 3.0), st.floats(0.0, 6.2))
@settings(max_examples=25, deadline=None)
def test_tensor_matches_fd_hessian(r, ang):
    p = Profile(1, (0.52, 0.015, 0.008))
    nm = PlanarNorm(p)
    x = r * np.array([math.cos(ang), math.sin(ang)])
    g = fundamental_tensor(nm, x)
    E = lambda ys: np.array([0.5 * value(nm, y) ** 2 for y in ys])
    assert np.allclose(g, hessian_fd(E, x, step=1e-4 * r), atol=3e-6)


def test_tensor_positive_definite():
    g = fundamental_tensor(ELLIPSE, np.array([0.4, 0.9]))
    assert np.all(np.linalg.eigvalsh(g) > 0)


def test_tensor_rows_have_the_bits_of_one_point_calls():
    X = np.random.default_rng(3).standard_normal((40, 2))
    base = Profile(2, (1.0, 0.15, 0.01))
    sector = SectorProfile(2, (0.7,), (base, Profile(2, (1.0, 0.1))))
    for p in (base, sector, DualProfile(base)):
        nm = PlanarNorm(p)
        G = fundamental_tensor(nm, X)
        assert G.shape == (40, 2, 2)
        assert np.array_equal(G, [fundamental_tensor(nm, x) for x in X]), type(p).__name__
    with pytest.raises(ValueError, match="origin"):
        fundamental_tensor(ELLIPSE, np.array([[1.0, 0.0], [0.0, 0.0]]))


# --------------------------------------------------------------- legendre

def test_legendre_map_quadratic():
    y = legendre_map(ELLIPSE, np.array([0.5, 0.5]))
    assert np.allclose(y, [1.2, 0.8], atol=1e-12)


def test_theta_legendre_frozen():
    assert theta_legendre(ELLIPSE.profile, math.pi / 4) == pytest.approx(
        0.5880026035475676, abs=1e-12)


def test_theta_legendre_is_gradient_angle():
    # the closed form is the polar angle of the gradient image
    for t in np.linspace(0.05, math.pi / 2 - 0.05, 9):
        x = indicatrix_point(ELLIPSE, float(t))
        y = legendre_map(ELLIPSE, x)
        assert theta_legendre(ELLIPSE.profile, float(t)) == pytest.approx(
            math.atan2(y[1], y[0]), abs=1e-10)


def test_theta_legendre_round_is_identity():
    for t in (0.2, 0.9, 2.5):
        assert theta_legendre(ROUND.profile, t) == pytest.approx(t, abs=1e-12)


NON_FINITE = (math.nan, math.inf, -math.inf)


@pytest.mark.parametrize("t,raw", [(t, 0.5) for t in NON_FINITE]
                         + [(0.5, raw) for raw in NON_FINITE]
                         + [(math.pi, 0.0), (-math.pi, 0.0), (0.5, 0.5)])
def test_unwrap_to_of_a_float_matches_its_array_row(t, raw):
    # a NaN or infinite turn count passes through on floats, as np.rint
    # passes it on arrays; a tie (t - raw = +-pi) rounds half to even
    one = planar._unwrap_to(t, raw)
    with np.errstate(invalid="ignore"):  # inf - inf in the array row
        row = planar._unwrap_to(np.array([t]), np.array([raw]))
    assert type(one) is float
    assert np.array_equal([one], row, equal_nan=True)


def test_linear_theta_of_a_nan_angle_is_nan_on_floats_and_rows():
    # the linear map reaches _unwrap_to without a jet, so nothing names the
    # NaN first: both paths return it, neither raises
    tm = ThetaMap("linear", (1.3, 0.8))
    one = theta_jet(tm, ROUND.profile, math.nan, 1)
    rows = theta_jet(tm, ROUND.profile, np.array([math.nan]), 1)
    assert all(math.isnan(v) for v in one)
    assert all(np.isnan(v).all() for v in rows)


def test_scaled_legendre_theta_frozen():
    # round norm, (a,b) = (1,2): tan theta = 2 tan t
    tm = ThetaMap("scaled-legendre", (1.0, 2.0))
    assert theta_jet(tm, ROUND.profile, math.pi / 4, 0)[0] == pytest.approx(
        1.1071487177940904, abs=1e-12)


def test_scaled_legendre_theta_is_its_closed_form_of_one_jet():
    # theta_jet of a scaled-Legendre map is _theta_from_jet of f's jet to
    # order k + 1 and numpy's sin/cos of t, bit for bit, in every form of t
    tm, f = ThetaMap("scaled-legendre", (1.3, 0.8)), ELLIPSE.profile
    ts = np.linspace(-2.0, 4.0, 13)
    for t in (*ts.tolist(), ts, ts[:, None]):
        for k in (0, 1):
            want = planar._theta_from_jet(f.jet(t, k + 1), np.sin(t), np.cos(t),
                                          t, 1.3, 0.8, k)
            got = theta_jet(tm, f, t, k)
            assert len(got) == len(want) == k + 1
            for a, b in zip(got, want):
                assert type(a) is (float if isinstance(t, float) else np.ndarray)
                assert np.array_equal(a, b) and np.shape(a) == np.shape(t)


def test_theta_deriv_matches_fd():
    h = 1e-6
    for t in (0.3, 0.8, 1.2):
        fd = (theta_legendre(ELLIPSE.profile, t + h)
              - theta_legendre(ELLIPSE.profile, t - h)) / (2 * h)
        assert theta_jet(legendre_map_tag(), ELLIPSE.profile, t, 1)[1] == pytest.approx(
            fd, rel=1e-7)


def test_legendre_ode_rhs():
    # theta_legendre solves the first-order angle equation
    for t in np.linspace(0.1, math.pi / 2 - 0.1, 11):
        lhs = theta_jet(legendre_map_tag(), ELLIPSE.profile, float(t), 1)[1]
        rhs = legendre_ode_rhs(ELLIPSE.profile, float(t),
                               theta_legendre(ELLIPSE.profile, float(t)))
        assert lhs == pytest.approx(rhs, abs=1e-5)


def test_involution():
    # gradient map of the dual norm inverts the gradient map
    dual_nm = PlanarNorm(DualProfile(ELLIPSE.profile))
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(100):
        ang = rng.uniform(0, 2 * math.pi)
        x = indicatrix_point(ELLIPSE, ang)
        back = legendre_map(dual_nm, legendre_map(ELLIPSE, x))
        worst = max(worst, float(np.max(np.abs(back - x))))
    assert worst < 1e-8


# ------------------------------------------------------------ dual profile

def test_dual_profile_ellipse_frozen():
    dp = dual_profile(ELLIPSE, grid_size=512)
    assert dp.cos_coeffs[0] == pytest.approx(DUAL_C0, abs=1e-6)
    assert dp.cos_coeffs[1] == pytest.approx(DUAL_C1, abs=1e-6)


@given(st.floats(-0.2, 0.2), st.floats(-0.02, 0.02))
@settings(max_examples=15, deadline=None)
def test_dual_of_valid_is_valid(c1, c2):
    p = Profile(2, (1.0, c1, c2))
    if not is_minkowski(p).valid:
        return
    dp = dual_profile(PlanarNorm(p))
    assert is_minkowski(dp).valid


def test_dual_profile_rejects_small_grid():
    with pytest.raises(ValueError):
        dual_profile(ELLIPSE, grid_size=64)


def test_dual_profile_fits_the_gradient_images():
    # the series is the DCT fit of the exact dual on every other point of a
    # uniform grid, and each of those values is the polar form of the
    # gradient image of a point of S_F
    dp = dual_profile(ELLIPSE, grid_size=128)
    exact = DualProfile(ELLIPSE.profile)
    grid = np.linspace(0.0, math.pi / 2, 255)[::2]
    h = exact.evaluate(grid)
    assert dp.cos_coeffs == lobatto_fit(2, h)[0].cos_coeffs
    ts = exact._invert_theta(grid)
    y = legendre_map(ELLIPSE, indicatrix_point(ELLIPSE, ts))
    assert np.max(np.abs(np.arctan2(y[:, 1], y[:, 0]) - grid)) < 1e-14
    assert np.max(np.abs(1.0 / (2.0 * np.sum(y * y, axis=1)) - h)) < 1e-14


@pytest.mark.parametrize("b", [0.95, -0.95])
def test_dual_profile_residual_covers_the_gaps(b):
    # h = (1 - b cos 2 theta) / (4 (1 - b^2)); the fit of the gradient images,
    # which cluster in theta, missed it by 0.14 between them
    p = Profile(2, (1.0, b))
    fitted = dual_profile(PlanarNorm(p))
    want = (1.0 / 0.39, -b / 0.39)
    assert np.max(np.abs(np.array(fitted.cos_coeffs[:2]) - want)) < 1e-12
    assert np.max(np.abs(fitted.cos_coeffs[2:])) < 1e-12
    assert fitted.fit_residual < 1e-12
    ts = np.linspace(0.0, math.pi / 2, 1001)
    err = np.max(np.abs(fitted.evaluate(ts) - DualProfile(p).evaluate(ts)))
    assert err <= 2.0 * fitted.fit_residual + 1e-12


@given(st.sampled_from(ALLOWED_D), st.floats(-0.95, 0.95))
@example(1, 0.95)
@example(2, -0.95)
@example(3, 0.95)
@example(4, -0.95)
@example(6, 0.95)
@settings(max_examples=20, deadline=None)
def test_dual_profile_fit_stays_within_its_residual(d, share):
    # over the valid range, up to 0.95 of the bound on |b|: the fit is a
    # valid profile, off the exact dual by no more than its fit_residual says
    p = Profile(d, (1.0, share * B_BOUND[d]))
    fitted = dual_profile(PlanarNorm(p))
    ts = np.linspace(0.0, math.pi / d, 4001)
    err = np.max(np.abs(fitted.evaluate(ts) - DualProfile(p).evaluate(ts)))
    assert err <= 2.0 * fitted.fit_residual + 1e-12
    assert is_minkowski(fitted).status == "valid"


def _json_round_trip(p):
    return profile_from_json_dict(json.loads(json.dumps(p.to_json_dict())))


def test_dual_profile_residual_survives_json():
    # a fit of the samples alone gives 3.5058e-6; the error between them
    # (3.5148e-6) is the stored one, and it comes back
    p = Profile(1, (1.0, 0.95))
    fitted = dual_profile(PlanarNorm(p))
    ts = np.linspace(0.0, math.pi, 1023)[::2]
    plain = lobatto_fit(1, DualProfile(p).evaluate(ts))[0]
    assert plain.cos_coeffs == fitted.cos_coeffs
    assert plain.fit_residual < fitted.fit_residual
    assert fitted.fit_residual > 3.51e-6
    assert _json_round_trip(fitted) == fitted
    assert _json_round_trip(plain) == plain


@given(st.sampled_from(ALLOWED_D), st.floats(-0.99, 0.99))
@example(1, 0.99)
@example(2, -0.99)
@example(3, 0.99)
@example(6, 0.6690751080990951)  # errors 1.032e-8 and 9.88e-9, about `dual`'s 1e-8
@settings(max_examples=30, deadline=None)
def test_dual_profile_dct_fit_is_as_good_as_lstsq(d, share):
    # every d, up to 0.99 of the bound: the DCT's error is at most twice
    # lstsq's, at the samples and with the odd points included (a status
    # equality failed where the two fell on either side of an ok bound)
    p = Profile(d, (1.0, share * B_BOUND[d]))
    ts = np.linspace(0.0, math.pi / d, 1023)
    h = DualProfile(p).evaluate(ts)
    dct, lstsq = lobatto_fit(d, h[::2])[0], sampled_profile(d, ts[::2], h[::2])
    assert dct.fit_residual <= 2.0 * lstsq.fit_residual + 1e-15
    err = [max(q.fit_residual, np.max(np.abs(q.evaluate(ts[1::2]) - h[1::2])))
           for q in (dct, lstsq)]
    assert err[0] <= 2.0 * err[1] + 1e-15
    assert dual_profile(PlanarNorm(p)).fit_residual == err[0]


@pytest.mark.parametrize("b", [0.2, -0.6, 0.95])
def test_dual_terms_needed_of_an_exact_two_term_dual_is_two(b):
    # the dual of 1 + b cos 2t is the quadratic form's inverse: two terms
    fit, coeffs = planar._dual_fit(PlanarNorm(Profile(2, (1.0, b))), 512, None)
    assert len(coeffs) == 512 and fit.cos_coeffs == tuple(coeffs[:32])
    assert chop_count(coeffs) == 2


def test_dual_terms_needed_near_the_bound_exceeds_the_default():
    # at d = 1 and 0.99 of the bound the 32 default terms do not resolve h
    fit, coeffs = planar._dual_fit(PlanarNorm(Profile(1, (1.0, 0.99))), 512, None)
    assert chop_count(coeffs) > 32 and len(fit.cos_coeffs) == 32


def test_dual_profile_keeps_its_terms_through_json():
    # the loader refit the samples at 32 terms: error 1.9e-13 -> 3.0e-8
    fitted = dual_profile(PlanarNorm(Profile(1, (1.0, 0.9))), max_terms=64)
    q = _json_round_trip(fitted)
    assert len(q.cos_coeffs) == 64 and q.cos_coeffs == fitted.cos_coeffs
    assert q.fit_residual == fitted.fit_residual < 1e-12


def test_scaled_fitted_dual_keeps_its_residual_through_json():
    fitted = dual_profile(PlanarNorm(Profile(1, (1.0, 0.95))))
    s = fitted.scaled(2.0)
    assert s.fit_residual == 2.0 * fitted.fit_residual
    q = _json_round_trip(s)
    assert q == s and q.fit_residual == 2.0 * fitted.fit_residual


def test_dual_profile_residual_stays_small_when_resolved():
    assert dual_profile(ELLIPSE).fit_residual < 1e-14


def test_dual_profile_rejects_vanishing_f():
    # (1 + cos t)^2 / 2 vanishes at t = pi
    with pytest.raises(ValueError, match=r"<= 0 at t = 3\.14159"):
        dual_profile(PlanarNorm(Profile(1, (0.75, 1.0, 0.25))))


def test_exact_dual_matches_fitted():
    p = Profile(2, (1.0, 0.2))
    exact = DualProfile(p)
    fitted = dual_profile(PlanarNorm(p), grid_size=1024)
    ts = np.linspace(0.03, math.pi / 2 - 0.03, 41)
    for order, tol in ((0, 1e-10), (1, 1e-8), (2, 1e-6)):
        err = max(abs(exact.evaluate(float(t), order)
                      - fitted.evaluate(float(t), order)) for t in ts)
        assert err < tol, (order, err)


def test_exact_dual_round_trip_json():
    exact = DualProfile(Profile(2, (1.0, 0.2)), scale=0.5)
    q = profile_from_json_dict(exact.to_json_dict())
    for t in (0.1, 0.7, 1.3):
        assert q.evaluate(t, 0) == exact.evaluate(t, 0)
        assert q.evaluate(t, 2) == exact.evaluate(t, 2)


def test_exact_dual_derivative_cap():
    with pytest.raises(ValueError, match="orders 0..3"):
        DualProfile(Profile(2, (1.0, 0.2))).evaluate(0.3, 4)


BASE = Profile(2, (1.0, 0.5))
JET_KINDS = {
    "cosine": (BASE, 3),
    "sector": (SectorProfile(2, (0.6,), (BASE.scaled(0.5), DualProfile(BASE))),
               3),
    "dual": (DualProfile(BASE, scale=0.8), 3),
}


@pytest.mark.parametrize("kind", JET_KINDS)
@pytest.mark.parametrize("t", [0.3, -0.9, 2.2, np.linspace(-4.0, 5.0, 41)],
                         ids=["scalar", "negative", "beyond", "array"])
def test_jet_has_the_bits_of_evaluate_for_every_kind(kind, t):
    p, top = JET_KINDS[kind]
    for k in range(top + 1):
        jet = p.jet(t, k)
        assert len(jet) == k + 1
        for m, v in enumerate(jet):
            want = p.evaluate(t, m)
            assert type(v) is type(want)
            assert np.array_equal(v, want)


# a scalar angle in each form the float path takes
SCALAR_FORMS = {"float": float, "numpy-scalar": np.float64, "0-d": np.array}
GLUE_BASE = bump_profile(3, [(0.24, 0.4), (0.78, 0.36)])  # 96 terms
FLOAT_KINDS = {**JET_KINDS, "glue-base": (GLUE_BASE, 3),
               "glue-base-dual": (DualProfile(GLUE_BASE, scale=0.5), 3)}


@pytest.mark.parametrize("form", SCALAR_FORMS)
@pytest.mark.parametrize("kind", FLOAT_KINDS)
def test_one_angle_jet_is_floats_with_the_bits_of_its_row(kind, form):
    p, top = FLOAT_KINDS[kind]
    # negative angles and angles beyond pi/d go through the fold
    ts = np.append(np.linspace(-4.0, 5.0, 37),
                   [-0.0, math.pi / p.d, -math.pi / p.d, 2 * math.pi / p.d])
    rows = p.jet(ts[:, None], top)  # a column: one dot product per row
    for i, t in enumerate(ts.tolist()):
        one = p.jet(SCALAR_FORMS[form](t), top)
        assert all(type(v) is float for v in one)
        assert [v.hex() for v in one] == [float(v[i, 0]).hex() for v in rows], t


@pytest.mark.parametrize("kind", FLOAT_KINDS)
def test_a_non_finite_scalar_angle_is_named(kind):
    p, top = FLOAT_KINDS[kind]
    for bad in (math.nan, math.inf, -math.inf):
        for form in SCALAR_FORMS.values():
            for k in range(top + 1):
                with pytest.raises(ValueError, match="non-finite angle"):
                    p.jet(form(bad), k)


@pytest.mark.parametrize("kind", JET_KINDS)
def test_jet_rejects_out_of_range_orders(kind):
    p, top = JET_KINDS[kind]
    ts = np.linspace(-4.0, 5.0, 41)
    for k in (-1, top + 1):
        with pytest.raises(ValueError):
            p.jet(ts, k)


def _count_solves(monkeypatch) -> list:
    """The sizes of the angle arrays DualProfile._invert_theta is given."""
    calls, invert = [], DualProfile._invert_theta

    def counted(self, theta):
        calls.append(np.size(theta))
        return invert(self, theta)

    monkeypatch.setattr(DualProfile, "_invert_theta", counted)
    return calls


def test_ode_residuals_of_the_exact_legendre_triple_inverts_no_angle(monkeypatch):
    # h o theta_legendre is f/(4f^2 + f'^2) in closed form at t, so no Newton
    # solve goes back from theta to the t the caller gave; a triple read back
    # from JSON has an equal base, and a scaled dual qualifies too
    calls = _count_solves(monkeypatch)
    tr = IsometryTriple(f=BASE, h=DualProfile(BASE), theta=legendre_map_tag())
    for triple in (tr, triple_from_json_dict(triple_to_json_dict(tr)),
                   IsometryTriple(f=BASE, h=DualProfile(BASE, 0.5), theta=tr.theta)):
        ode_residuals(triple, 0.4)
        ode_residuals(triple, np.linspace(0.05, math.pi / 2 - 0.05, 33))
    assert calls == []


def test_ode_residuals_of_another_dual_triple_inverts_once(monkeypatch):
    # under a scaled-Legendre map, h(theta(t)) is read by one solve of all m
    # angles, not one per angle; a float angle is a one-element solve
    calls = _count_solves(monkeypatch)
    tr = IsometryTriple(f=BASE, h=DualProfile(BASE),
                        theta=ThetaMap(kind="scaled-legendre", params=(1.2, 0.9)))
    ode_residuals(tr, 0.4)
    assert calls == [1]
    calls.clear()
    ode_residuals(tr, np.linspace(0.05, math.pi / 2 - 0.05, 33))
    assert calls == [33]


@pytest.mark.parametrize("share", (-0.99, -0.5, 0.5, 0.99))
@pytest.mark.parametrize("d", ALLOWED_D)
def test_legendre_dual_jet_is_the_dual_at_theta_legendre(d, share):
    # the closed form at t against the Newton solve back from theta_legendre(t),
    # each order's error relative to |h| + |h^(m)|: at most 5.4e-13 measured
    # (d = 4, b at -0.99 of the bound, h''), where theta_legendre' is small
    # and one rounding unit of theta moves the solve's t by far more
    f = Profile(d, (1.3, 1.3 * share * B_BOUND[d]))
    dual = DualProfile(f, 0.7)
    ts = np.linspace(-1.0, math.pi / d + 1.0, 201)
    want = legendre_dual_jet(f, ts, 2, 0.7)
    got = dual.jet(theta_legendre(f, ts), 2)
    for m in range(3):
        err = np.abs(got[m] - want[m]) / (np.abs(want[0]) + np.abs(want[m]))
        assert np.max(err) <= 2e-12, m
    for t in ts[::20].tolist():  # a float angle on both sides, floats out
        want = legendre_dual_jet(f, t, 2, 0.7)
        got = dual.jet(theta_legendre(f, t), 2)
        assert all(isinstance(v, float) for v in (*want, *got))
        for m in range(3):
            assert abs(got[m] - want[m]) <= 2e-12 * (abs(want[0]) + abs(want[m])), m


def test_exact_dual_names_a_scalar_angle_that_does_not_converge(monkeypatch):
    monkeypatch.setattr(planar, "NEWTON_MAX_STEPS", 1)
    with pytest.raises(ValueError, match="did not converge in 1 steps at theta=0.4"):
        DualProfile(BASE).evaluate(0.4)


def test_exact_dual_names_the_first_array_angle_that_does_not_converge(monkeypatch):
    monkeypatch.setattr(planar, "NEWTON_MAX_STEPS", 1)
    with pytest.raises(ValueError, match="in 1 steps at theta=0.40000000000000002"):
        DualProfile(BASE).evaluate(np.array([0.0, 0.4, 0.9]))


@pytest.mark.parametrize("base", [BASE, GLUE_BASE], ids=["2-term", "96-term"])
def test_the_array_newton_solve_steps_only_the_rows_still_moving(base, monkeypatch):
    # each row takes the steps of its one-angle solve, so the rows that
    # reach the base's jet in one array solve add up to the steps of the
    # one-angle solves, and each array step holds the rows still moving
    thetas = np.linspace(0.0, math.pi / base.d, 257)
    dual, jet, calls = DualProfile(base), base.jet, []
    monkeypatch.setitem(vars(base), "jet", lambda t, k: (calls.append(np.size(t)),
                                                         jet(t, k))[1])
    ones, steps = [], []
    for theta in thetas:  # one-element solves
        calls.clear()
        ones.append(dual._invert_theta(theta[None])[0])
        steps.append(len(calls))
    calls.clear()
    assert dual._invert_theta(thetas).tobytes() == np.array(ones).tobytes()
    assert sum(calls) == sum(steps) < len(thetas) * max(steps)
    assert calls == [sum(s > i for s in steps) for i in range(max(steps))]


def test_the_orders_of_one_grid_take_one_solve(monkeypatch):
    # the last solve is kept with its folded angles: orders 0..3 of one grid
    # solve once, with the bits of a fresh dual's solve; a grid whose folded
    # angles differ, in a value or in number, solves again
    grid = np.linspace(-0.3, 2.0, 256)
    want = DualProfile(BASE, 0.8).jet(grid, 3)
    calls, dual = _count_solves(monkeypatch), DualProfile(BASE, 0.8)
    got = [dual.evaluate(grid, k) for k in range(4)]
    assert calls == [256]
    assert all(g.tobytes() == w.tobytes() for g, w in zip(got, want))
    dual.evaluate(grid[::-1], 0)  # reversed: the same set, in another order
    dual.evaluate(grid[:-1], 0)
    dual.evaluate(grid[:-1].reshape(-1, 5), 2)  # folded flat: the same angles
    dual.evaluate(float(grid[0]), 1)
    assert calls == [256, 256, 255, 1]


def test_the_kept_solve_does_not_follow_the_callers_array(monkeypatch):
    calls, grid = _count_solves(monkeypatch), np.linspace(0.05, 1.5, 33)
    dual = DualProfile(BASE)
    dual.evaluate(grid, 0)
    grid[7] += 0.1  # the caller's array, changed after the call
    assert dual.evaluate(grid, 1).tobytes() == DualProfile(BASE).evaluate(
        grid, 1).tobytes()
    assert calls == [33, 33, 33]


def test_a_solve_that_raises_keeps_nothing(monkeypatch):
    calls, dual, grid = _count_solves(monkeypatch), DualProfile(BASE), np.array([0.0, 0.4, 0.9])
    with monkeypatch.context() as m:
        m.setattr(planar, "NEWTON_MAX_STEPS", 1)
        with pytest.raises(ValueError, match="did not converge"):
            dual.evaluate(grid)
    assert dual.evaluate(grid).tobytes() == DualProfile(BASE).evaluate(grid).tobytes()
    assert calls == [3, 3, 3]


def test_the_kept_solve_is_no_state(monkeypatch):
    # equality, the hash and pickle read the base and the scale alone, and a
    # copy solves afresh
    fresh, dual = DualProfile(BASE, 0.8), DualProfile(BASE, 0.8)
    blob = pickle.dumps(fresh)
    dual.evaluate(np.linspace(0.0, 1.5, 9), 2)
    assert dual == fresh and hash(dual) == hash(fresh)
    assert pickle.dumps(dual) == blob
    calls = _count_solves(monkeypatch)
    for q in (pickle.loads(blob), copy.copy(dual), copy.deepcopy(dual)):
        assert q == dual
        q.evaluate(np.linspace(0.0, 1.5, 9), 0)
    assert calls == [9, 9, 9]


@pytest.mark.parametrize("p", [Profile(2, (1.0, 0.5)), Profile(1, (0.52, 0.015, 0.008)),
                               Profile(3, (0.5, 0.02)), Profile(4, (1.0, 0.03, 0.001))],
                         ids=["d2", "d1", "d3", "d4"])
def test_the_third_derivative_of_the_dual_is_the_slope_of_its_second(p):
    # h''' in closed form against a central difference of h'' (step 1e-5):
    # at most 1.7e-9 of max|h'''| measured, the difference's own error
    dual, step = DualProfile(p, 0.7), 1e-5
    ts = np.linspace(0.05, math.pi / p.d - 0.05, 23)
    fd = (dual.evaluate(ts + step, 2) - dual.evaluate(ts - step, 2)) / (2 * step)
    h3 = dual.evaluate(ts, 3)
    assert np.max(np.abs(fd - h3)) <= 1e-8 * np.max(np.abs(h3))


def test_exact_dual_rejects_invalid_base():
    # gap < 0 somewhere: the angle map is not monotone, so it has no inverse
    with pytest.raises(ValueError, match="invalid"):
        DualProfile(Profile(2, (1.0, 1.1)))


def test_exact_dual_rejects_marginal_base():
    # (1 + cos t)^2 / 2 pinches theta_legendre' to 0 at t = pi, where h
    # blows up (h(pi - 1e-3) came out as -6.9e15)
    with pytest.raises(ValueError, match="marginal"):
        DualProfile(Profile(1, (0.75, 1.0, 0.25)))


# validity bound on |b| for c0 (1 + b cos(d t)): 2/(d^2 - 2) from d = 2 on
B_BOUND = {1: 1.0, 2: 1.0, 3: 2.0 / 7.0, 4: 2.0 / 14.0, 6: 2.0 / 34.0}


def _bisection_dual(p: Profile, thetas):
    """h at the angles thetas in [0, pi/d] by bisection on theta_legendre,
    which is increasing there."""
    lo = np.zeros_like(thetas)
    hi = np.full_like(thetas, math.pi / p.d)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        below = theta_legendre(p, mid) < thetas
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    t = 0.5 * (lo + hi)
    f0, f1 = p.evaluate(t, 0), p.evaluate(t, 1)
    return f0 / (4 * f0 * f0 + f1 * f1)


def _check_exact_dual(p: Profile):
    d = p.d
    exact = DualProfile(p)
    ts = np.linspace(-1.0, math.pi / d + 1.0, 97)
    got = exact.evaluate(ts)
    want = _bisection_dual(p, dihedral_fold(ts, d)[0])
    assert np.max(np.abs(got - want)) <= 1e-9 * np.max(np.abs(want))
    # a scalar is solved on scalars, with the bits of its row in an array
    for k in range(3):
        rows = exact.jet(ts, k)
        for i, t in enumerate(ts):
            assert exact.jet(float(t), k) == tuple(float(v[i]) for v in rows)
    tr = IsometryTriple(f=p, h=exact, theta=legendre_map_tag())
    ts = np.linspace(0.05, math.pi / d - 0.05, 7)
    assert np.max(np.abs(ode_residuals(tr, ts))) <= 1e-11


@given(st.sampled_from(ALLOWED_D), st.floats(-0.95, 0.95),
       st.floats(0.5, 2.0))
@settings(max_examples=40, deadline=None)
def test_exact_dual_over_the_valid_range(d, share, c0):
    _check_exact_dual(Profile(d, (c0, c0 * share * B_BOUND[d])))


def _reference_dual_jet(mpmath, d, b, theta):
    """(h, h', h'') of 1 + b cos(d t)'s exact dual at theta in (0, pi/d), in
    50 digits: the Legendre angle inverted by findroot, then the chain rule
    through theta_legendre' and theta_legendre''."""
    mp = mpmath
    with mp.workdps(50):
        b, theta = mp.mpf(b), mp.mpf(theta)

        def jet(t):
            c, s = mp.cos(d * t), mp.sin(d * t)
            return 1 + b * c, -b * d * s, -b * d ** 2 * c, b * d ** 3 * s

        def angle(t):
            f0, f1 = jet(t)[:2]
            raw = mp.atan2(2 * f0 * mp.sin(t) + f1 * mp.cos(t),
                           2 * f0 * mp.cos(t) - f1 * mp.sin(t))
            return raw + 2 * mp.pi * mp.nint((t - raw) / (2 * mp.pi))

        t = mp.findroot(lambda t: angle(t) - theta, (mp.mpf(0), mp.pi / d),
                        solver="anderson")
        f0, f1, f2, f3 = jet(t)
        sin, cos = mp.sin(t), mp.cos(t)
        G = 4 * f0 * f0 + f1 * f1
        Gp = 2 * f1 * (4 * f0 + f2)
        Gpp = 8 * (f1 * f1 + f0 * f2) + 2 * (f2 * f2 + f1 * f3)
        qp = f1 / G - f0 * Gp / G ** 2
        qpp = (f2 / G - 2 * f1 * Gp / G ** 2 - f0 * Gpp / G ** 2
               + 2 * f0 * Gp ** 2 / G ** 3)
        gap = 2 * f0 * f2 - f1 * f1 + 4 * f0 * f0
        N, D = 2 * f0 * sin + f1 * cos, 2 * f0 * cos - f1 * sin
        Np = f1 * sin + (2 * f0 + f2) * cos
        Dp = f1 * cos - (2 * f0 + f2) * sin
        tp = gap / (N * N + D * D)
        tpp = (2 * f0 * (f3 + 4 * f1) / (N * N + D * D)
               - gap * 2 * (N * Np + D * Dp) / (N * N + D * D) ** 2)
        return f0 / G, qp / tp, (qpp * tp - qp * tpp) / tp ** 3


@pytest.mark.parametrize("share", (0.5, 0.95, 0.9999))
@pytest.mark.parametrize("d", ALLOWED_D)
def test_exact_dual_jet_matches_a_50_digit_reference(d, share):
    # each order's error, relative to |h| + |h^(m)|; the worst, 5.6e-12 at
    # d = 2 and 0.9999 of the bound, is the inversion's: theta_legendre' is
    # near 0 there, so one rounding unit of theta moves t by far more
    mpmath = pytest.importorskip("mpmath")
    b = share * B_BOUND[d]
    thetas = np.linspace(0.0, math.pi / d, 42)[1:-1]
    got = DualProfile(Profile(d, (1.0, b))).jet(thetas, 2)
    for i, theta in enumerate(thetas):
        want = _reference_dual_jet(mpmath, d, b, float(theta))
        for m in range(3):
            err = abs(got[m][i] - want[m]) / (abs(want[0]) + abs(want[m]))
            assert err <= 1e-11, (m, float(theta))


def test_exact_dual_strong_anisotropy():
    # Newton from t = theta without a bracket leaves [0, pi/d] and diverges
    _check_exact_dual(Profile(2, (1.0, 0.7)))


def test_exact_dual_stops_at_the_rounding_floor():
    # theta_legendre' is 0.026 near the root, so one rounding unit of the
    # residual moves t by 1.7e-14: Newton steps never drop below 1e-14
    p = Profile(2, (1.0, -0.95))
    theta = 1.5705399079967557
    want = _bisection_dual(p, np.array([theta]))[0]
    assert DualProfile(p).evaluate(theta) == pytest.approx(want, rel=1e-12)


# ------------------------------------------------------------- indicatrix

def test_indicatrix_points_have_unit_norm():
    ts = np.linspace(0, 2 * math.pi, 17)
    for t in ts:
        x = indicatrix_point(ELLIPSE, float(t))
        assert value(ELLIPSE, x) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("scale", [0.0, -1.0, math.nan, math.inf])
def test_exact_dual_needs_a_positive_finite_scale(scale):
    # a NaN passed the test scale <= 0, and +inf passed it too
    match = f"scale must be positive and finite, got {scale}"
    with pytest.raises(ValueError, match=match):
        DualProfile(Profile(2, (1.0, 0.2)), scale)
    with pytest.raises(ValueError, match=match):
        DualProfile(Profile(2, (1.0, 0.2))).scaled(scale)
