"""Isometry triples: theta maps, the ODE system, gluing, and lifts."""

import hashlib
import json
import math
import re
import warnings
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isonorm import foliation, hessian, isometry
from isonorm.foliation import (FocalProximityError, parse_model,
                               random_leaf_points, shape_spectrum, t_coord)
from isonorm.hessian import (InducedNorm, closed_fundamental_tensor,
                             fd_fundamental_tensor, riemann_fd)
from isonorm.isometry import (Decomposition, IsometryTriple, Sector, ThetaMap,
                              _cumulative_simpson, _pchip, build_h_from_theta,
                              bump_profile, check_d_property,
                              check_hessian_isometry, classify_sectors,
                              d_residuals, glue_construct, identity_map,
                              integrate_branch, legendre_map_tag, lift_to_nd,
                              ode_residuals,
                              planar_lift_map, quadratic_and_roots,
                              theta_from_json_dict, theta_to_json_dict,
                              theta_jet, triple_from_json_dict,
                              triple_to_json_dict)
from isonorm.planar import (DualProfile, PlanarNorm, fundamental_tensor,
                            indicatrix_point, legendre_map, theta_legendre)
from isonorm.profile import (Profile, SectorProfile, load_profile, lobatto_fit,
                             sampled_profile, save_profile)

ELLIPSE = Profile(2, (1.0, 0.2))
WOBBLE3 = Profile(3, (0.5, 0.02, 0.005))


def _legendre_triple(f: Profile) -> IsometryTriple:
    return IsometryTriple(f=f, h=DualProfile(f), theta=legendre_map_tag())


def _identity_triple(f: Profile) -> IsometryTriple:
    return IsometryTriple(f=f, h=f, theta=identity_map())


# -------------------------------------------------------------- theta maps

def test_theta_kind_validation():
    with pytest.raises(ValueError):
        ThetaMap(kind="affine")
    with pytest.raises(ValueError):
        ThetaMap(kind="linear", params=(1.0,))
    with pytest.raises(ValueError):
        ThetaMap(kind="linear", params=(1.0, -2.0))
    with pytest.raises(ValueError):
        ThetaMap(kind="sampled", grid=(0.0, 0.1, 0.05, 0.2),
                 values=(0.0, 0.1, 0.2, 0.3))


@pytest.mark.parametrize("kind", ["linear", "scaled-legendre"])
@pytest.mark.parametrize("a,b", [("1.0", "NaN"), ("1.0", "1e999"), ("-1e999", "1.0")])
def test_theta_parameters_must_be_finite(kind, a, b):
    # such a map was built, and theta_jet then returned NaN with no error;
    # JSON reads 1e999 as inf
    params = (float(a), float(b))
    msg = re.escape(f"{kind} theta needs two positive finite parameters, got {params}")
    with pytest.raises(ValueError, match=msg):
        ThetaMap(kind=kind, params=params)
    with pytest.raises(ValueError, match=msg):
        theta_from_json_dict(json.loads(f'{{"kind": "{kind}", "a": {a}, "b": {b}}}'))


@pytest.mark.parametrize("kind", ["identity", "legendre", "sampled", "piecewise"])
@pytest.mark.parametrize("params", [(2.0, 0.5), (1.0, math.nan)])
def test_theta_kinds_without_parameters_reject_them(kind, params):
    # a legendre map read them as a scaled-legendre one (theta 0.0908, not
    # 0.3493), and (1.0, nan) made theta_jet return (nan, nan)
    msg = re.escape(f"{kind} theta takes no parameters, got {params}")
    with pytest.raises(ValueError, match=msg):
        ThetaMap(kind=kind, params=params)


def test_a_legendre_map_keeps_its_theta_through_json():
    # a saved legendre map carries no a/b, so one built with params (read as
    # scaled-legendre's) had theta 0.0908, and 0.3493 once loaded
    f = Profile(2, (1.0, 0.2))
    with pytest.raises(ValueError, match="legendre theta takes no parameters"):
        ThetaMap(kind="legendre", params=(2.0, 0.5))
    for tm in (legendre_map_tag(), ThetaMap(kind="scaled-legendre", params=(2.0, 0.5))):
        back = theta_from_json_dict(json.loads(json.dumps(theta_to_json_dict(tm))))
        assert back == tm and theta_jet(back, f, 0.5, 1) == theta_jet(tm, f, 0.5, 1)
    assert theta_jet(legendre_map_tag(), f, 0.5, 0)[0] == pytest.approx(0.3493, abs=1e-4)


def test_theta_identity_and_linear():
    f = ELLIPSE
    assert theta_jet(identity_map(), f, 0.37, 0)[0] == pytest.approx(0.37)
    assert theta_jet(identity_map(), f, 0.37, 1)[1] == pytest.approx(1.0)
    tm = ThetaMap(kind="linear", params=(1.0, 2.0))
    t = math.pi / 4
    assert theta_jet(tm, f, t, 0)[0] == pytest.approx(math.atan(2.0),
                                                     abs=1e-12)
    h = 1e-6
    fd = (theta_jet(tm, f, t + h, 0)[0] - theta_jet(tm, f, t - h, 0)[0]) / (2 * h)
    assert theta_jet(tm, f, t, 1)[1] == pytest.approx(fd, rel=1e-7)


def test_theta_legendre_kind_uses_profile():
    tm = legendre_map_tag()
    for t in (0.2, 0.9, 1.4):
        assert theta_jet(tm, ELLIPSE, t, 0)[0] == pytest.approx(
            theta_legendre(ELLIPSE, t), abs=1e-12)


def test_theta_sampled_interpolates():
    grid = np.linspace(0.0, math.pi / 2, 33)
    tm = ThetaMap(kind="sampled", grid=tuple(grid), values=tuple(grid * 1.0))
    assert theta_jet(tm, ELLIPSE, 0.7, 0)[0] == pytest.approx(0.7, abs=1e-10)
    assert theta_jet(tm, ELLIPSE, 0.7, 1)[1] == pytest.approx(1.0, abs=1e-6)


def test_theta_json_round_trip():
    maps = [identity_map(),
            ThetaMap(kind="linear", params=(1.0, 1.5)),
            ThetaMap(kind="sampled",
                     grid=(0.0, 0.5, 1.0, 1.5),
                     values=(0.0, 0.45, 1.05, 1.5))]
    for tm in maps:
        back = theta_from_json_dict(json.loads(json.dumps(
            theta_to_json_dict(tm))))
        for t in (0.2, 0.8, 1.3):
            assert theta_jet(back, ELLIPSE, t, 0)[0] == pytest.approx(
                theta_jet(tm, ELLIPSE, t, 0)[0], abs=1e-12)


# The numpy monotone cubic and cumulative Simpson rule replace scipy's and
# must keep their bits; scipy is only a test extra.
PCHIP_NODES = {
    "four nodes": ((0.0, 0.5, 1.0, 1.5), (0.0, 0.45, 1.05, 1.5)),
    "flat run": ((0.0, 0.3, 0.5, 0.9, 1.2, 1.4),
                 (0.0, 0.2, 0.2, 0.2, 0.7, 1.0)),
    # the first end slope is clipped to 3 times its secant
    "sign change": ((0.0, 0.2, 0.5, 0.6, 1.0, 1.1),
                    (0.0, 0.05, -0.4, -0.3, 0.5, 0.45)),
    "uneven monotone": (tuple(np.cumsum(np.linspace(0.05, 0.3, 24) ** 2)),
                        tuple(np.sqrt(np.arange(24.0)))),
}


@pytest.mark.parametrize("order", (0, 1))
@pytest.mark.parametrize("name", sorted(PCHIP_NODES))
def test_pchip_matches_scipy(name, order):
    interpolate = pytest.importorskip("scipy.interpolate")
    x, y = (np.array(v) for v in PCHIP_NODES[name])
    # before, between, at and after the nodes
    t = np.concatenate([[x[0] - 0.4, x[0] - 1e-9], (x[:-1] + x[1:]) / 2,
                        x[:-1] + 0.3 * np.diff(x), x,
                        [x[-1] + 1e-9, x[-1] + 0.4]])
    ref = interpolate.PchipInterpolator(x, y)
    want = ref(t) if order == 0 else ref.derivative()(t)
    assert np.array_equal(_pchip(x, y, t, order), want)


@pytest.mark.parametrize("uniform", (True, False))
@pytest.mark.parametrize("n", (1, 2, 3, 4, 5, 64, 65))
def test_cumulative_simpson_matches_scipy(n, uniform):
    integrate = pytest.importorskip("scipy.integrate")
    rng = np.random.default_rng(n)
    x = (np.linspace(0.2, 1.3, n) if uniform
         else 0.2 + np.cumsum(rng.uniform(0.001, 0.1, n)))
    y = np.sin(3 * x) + rng.normal(scale=0.1, size=n)
    want = integrate.cumulative_simpson(y, x=x, initial=0.0)
    assert np.array_equal(_cumulative_simpson(y, x), want)


def test_sampled_theta_matches_scipy():
    interpolate = pytest.importorskip("scipy.interpolate")
    grid = np.linspace(0.0, math.pi / 2, 17)
    values = theta_legendre(ELLIPSE, grid)
    tm = ThetaMap(kind="sampled", grid=tuple(grid), values=tuple(values))
    ref = interpolate.PchipInterpolator(grid, values)
    ts = np.linspace(-0.1, math.pi / 2 + 0.1, 101)
    assert np.array_equal(theta_jet(tm, ELLIPSE, ts, 0)[0], ref(ts))
    assert np.array_equal(theta_jet(tm, ELLIPSE, ts, 1)[1],
                          ref.derivative()(ts))
    assert theta_jet(tm, ELLIPSE, 0.7, 1)[1] == float(ref.derivative()(0.7))


@pytest.mark.parametrize("lo", [0.7 + 5e-10, 0.7 - 5e-10], ids=["gap", "overlap"])
def test_piecewise_theta_pieces_that_meet_within_tolerance(lo):
    # a piece's hi belongs to the next piece, so an angle in a gap [hi, lo)
    # takes the next piece (it was left uninitialised) and an angle in an
    # overlap [lo, hi) the piece before
    left, right = ThetaMap(kind="linear", params=(1.3, 0.8)), legendre_map_tag()
    tm = ThetaMap(kind="piecewise",
                  pieces=((0.0, 0.7, left), (lo, math.pi / 2, right)))
    ts = 0.7 + np.array([-2.5e-10, 0.0, 2.5e-10])
    want = [theta_jet(sub, ELLIPSE, float(t), 1)
            for t, sub in zip(ts, (left, right, right))]
    assert [theta_jet(tm, ELLIPSE, float(t), 1) for t in ts] == want
    assert np.array_equal(np.hstack(theta_jet(tm, ELLIPSE, ts[:, None], 1)), want)


@pytest.mark.parametrize("bounds,named", [
    (((math.nan, math.nan),), "piece 0 is [nan, nan]"),
    (((0.0, math.nan),), "piece 0 is [0.0, nan]"),
    (((math.nan, math.pi / 2),), "piece 0 is [nan, "),
    (((0.0, math.inf),), "piece 0 is [0.0, inf]"),
    (((-math.inf, math.pi / 2),), "piece 0 is [-inf, "),
    (((0.0, 0.7), (0.7, math.nan)), "piece 1 is [0.7, nan]"),
], ids=["both-nan", "hi-nan", "lo-nan", "hi-inf", "lo-minus-inf", "second-hi-nan"])
def test_piecewise_theta_bound_that_is_not_finite_is_named(bounds, named):
    # NaN bounds passed the order and contiguity tests and were evaluated
    pieces = tuple((lo, hi, identity_map()) for lo, hi in bounds)
    with pytest.raises(ValueError, match=re.escape(f"piecewise theta {named}")):
        ThetaMap(kind="piecewise", pieces=pieces)


BREAKS = (0.5, 1.1)
SECTOR = SectorProfile(2, BREAKS, (Profile(2, (1.0, 0.2)), Profile(2, (1.1, 0.1)),
                                   Profile(2, (0.9, 0.3, 0.01))))
PIECE_THETAS = (identity_map(), ThetaMap(kind="linear", params=(1.3, 0.8)),
                legendre_map_tag())
PIECEWISE = ThetaMap(kind="piecewise", pieces=tuple(
    zip((0.0, *BREAKS), (*BREAKS, math.pi / 2), PIECE_THETAS)))


@pytest.mark.parametrize("kind", ["sector-profile", "piecewise-theta"])
def test_a_break_belongs_to_the_piece_on_its_right(kind):
    # sector profiles and piecewise theta maps pick pieces by one lookup
    if kind == "sector-profile":
        jet, pieces = SECTOR.jet, [p.jet for p in SECTOR.pieces]
    else:
        jet = partial(theta_jet, PIECEWISE, ELLIPSE)
        pieces = [partial(theta_jet, sub, ELLIPSE) for sub in PIECE_THETAS]
    ts = np.array([0.3, BREAKS[0], 0.8, BREAKS[1], 1.4])
    owners = [0, 1, 1, 2, 2]
    rows = jet(ts, 1)
    for i, (t, owner) in enumerate(zip(ts.tolist(), owners)):
        one = jet(t, 1)
        assert [type(v) for v in one] == [float, float]
        assert [v.hex() for v in one] == [float(row[i]).hex() for row in rows]
        assert one == pieces[owner](t, 1)
        if t in BREAKS:  # the pieces differ there, so the owner is seen
            assert one != pieces[owner - 1](t, 1)


# ------------------------------------------------------------ ODE residuals

def test_identity_triple_residuals_vanish():
    tr = _identity_triple(WOBBLE3)
    ts = np.linspace(0.05, math.pi / 3 - 0.05, 33)
    assert np.max(np.abs(ode_residuals(tr, ts))) < 1e-12


def test_legendre_triple_residuals_vanish():
    tr = _legendre_triple(ELLIPSE)
    assert len(ode_residuals(tr, 0.3)) == 3  # second order + one per k
    ts = np.linspace(0.05, math.pi / 2 - 0.05, 33)
    assert np.max(np.abs(ode_residuals(tr, ts))) < 1e-9


def test_perturbed_h_breaks_residuals():
    tr = IsometryTriple(f=ELLIPSE, h=Profile(2, (1.0, 0.23)),
                        theta=identity_map())
    worst = np.max(np.abs(ode_residuals(tr, np.linspace(0.1, 1.4, 21))))
    assert worst > 1e-2


def test_triple_d_mismatch_rejected():
    with pytest.raises(ValueError):
        IsometryTriple(f=ELLIPSE, h=WOBBLE3, theta=identity_map())


def test_triple_json_round_trip():
    tr = _legendre_triple(ELLIPSE)
    back = triple_from_json_dict(json.loads(json.dumps(
        triple_to_json_dict(tr))))
    ts = np.array([0.2, 0.7, 1.2])
    assert np.allclose(ode_residuals(back, ts), ode_residuals(tr, ts), atol=1e-12)


ROW_F = Profile(2, (1.0, 0.15, 0.01))
ROW_GRID = np.linspace(0.0, math.pi / 2, 9)
ROW_THETAS = {
    "identity": identity_map(),
    "linear": ThetaMap(kind="linear", params=(1.3, 0.8)),
    "legendre": legendre_map_tag(),
    "scaled-legendre": ThetaMap(kind="scaled-legendre", params=(1.2, 0.9)),
    "sampled": ThetaMap(kind="sampled", grid=tuple(ROW_GRID),
                        values=tuple(ROW_GRID + 0.01 * np.sin(2 * ROW_GRID))),
    "piecewise": ThetaMap(kind="piecewise", pieces=(
        (0.0, 0.7, identity_map()), (0.7, math.pi / 2, legendre_map_tag()))),
}
ROW_HS = {
    "Profile": Profile(2, (0.8, -0.1)),
    "SectorProfile": SectorProfile(2, (0.7,), (ROW_F.scaled(0.9),
                                               Profile(2, (0.5, 0.05)))),
    "DualProfile": DualProfile(ROW_F),
}


@pytest.mark.parametrize("theta_kind", isometry.THETA_KINDS)
def test_theta_of_a_first_order_jet_has_the_bits_of_theta_alone(theta_kind):
    tm = ROW_THETAS[theta_kind]
    ts = np.append(np.linspace(-0.2, math.pi / 2 + 0.2, 41), 0.7)  # + a break
    for t in (ts, ts[:, None], 0.7, 0.3):
        assert np.array_equal(theta_jet(tm, ROW_F, t, 1)[0],
                              theta_jet(tm, ROW_F, t, 0)[0])


def test_ode_residuals_takes_one_jet_of_f_for_a_legendre_theta(monkeypatch):
    # every evaluation of a profile goes through the jet bound to it
    calls = []
    kernel = ROW_F.jet

    def counted(t, k):
        calls.append(k)
        return kernel(t, k)

    monkeypatch.setitem(ROW_F.__dict__, "jet", counted)
    for theta in (legendre_map_tag(), ROW_THETAS["scaled-legendre"]):
        tr = IsometryTriple(f=ROW_F, h=ROW_HS["Profile"], theta=theta)
        for t in (0.4, np.linspace(0.05, 1.5, 9)):
            calls.clear()
            ode_residuals(tr, t)
            assert calls == [2, 2]  # theta and theta' from one, and f's own


@pytest.mark.parametrize("h_kind", sorted(ROW_HS))
@pytest.mark.parametrize("theta_kind", isometry.THETA_KINDS)
def test_ode_residual_rows_have_the_bits_of_one_angle_calls(theta_kind, h_kind):
    tr = IsometryTriple(f=ROW_F, h=ROW_HS[h_kind], theta=ROW_THETAS[theta_kind])
    ts = np.append(np.linspace(0.01, math.pi / 2 - 0.01, 37), 0.7)  # + a break
    rows = ode_residuals(tr, ts)
    assert rows.shape == (3, ts.size)
    assert np.array_equal(rows, np.array([ode_residuals(tr, float(t)) for t in ts]).T)
    assert ode_residuals(tr, np.array([])).shape == (3, 0)


# one angle as a float, a numpy scalar and a 0-d array; the negative ones
# and those beyond pi/2 go through the fold of h (and of f's jets)
SCALAR_FORMS = (float, np.float64, np.array)
FOLD_ANGLES = np.array([-2.9, -0.4, -0.0, 0.0, 0.3, 0.7, 1.2, math.pi / 2, 2.0, 4.4])
GLUE_BASE_D2 = bump_profile(2, [(0.5, 0.4)])  # a 96-term glue base
FLOAT_HS = {**ROW_HS, "glue-base-dual": DualProfile(GLUE_BASE_D2)}


@pytest.mark.parametrize("h_kind", sorted(FLOAT_HS))
@pytest.mark.parametrize("theta_kind", isometry.THETA_KINDS)
def test_one_angle_residuals_have_their_row_bits_in_every_scalar_form(
        theta_kind, h_kind):
    tr = IsometryTriple(f=ROW_F, h=FLOAT_HS[h_kind], theta=ROW_THETAS[theta_kind])
    rows = ode_residuals(tr, FOLD_ANGLES).T
    for form in SCALAR_FORMS:
        for t, row in zip(FOLD_ANGLES.tolist(), rows):
            one = ode_residuals(tr, form(t))
            assert one.shape == (3,)
            assert [v.hex() for v in one.tolist()] == [v.hex() for v in row.tolist()]


@pytest.mark.parametrize("theta_kind", isometry.THETA_KINDS)
def test_theta_jet_of_one_angle_is_floats_with_its_row_bits(theta_kind):
    tm = ROW_THETAS[theta_kind]
    for f in (ROW_F, GLUE_BASE_D2):
        rows = theta_jet(tm, f, FOLD_ANGLES[:, None], 1)  # a column, as f needs
        for form in SCALAR_FORMS:
            for i, t in enumerate(FOLD_ANGLES.tolist()):
                one = theta_jet(tm, f, form(t), 1)
                assert [type(v) for v in one] == [float, float]
                assert [v.hex() for v in one] == [float(v[i, 0]).hex() for v in rows]
                assert theta_jet(tm, f, form(t), 0)[0].hex() == one[0].hex()


def test_solved_triple_json_round_trip_is_exact():
    # a built h is stored as its series and fit error and reloads equal
    f = ELLIPSE
    t0 = math.pi / 4
    h = build_h_from_theta(f, legendre_map_tag(), t0,
                           DualProfile(f).evaluate(theta_legendre(f, t0)))
    tr = IsometryTriple(f=f, h=h, theta=legendre_map_tag())
    back = triple_from_json_dict(json.loads(json.dumps(triple_to_json_dict(tr))))
    assert back == tr and back.h.fit_residual == h.fit_residual > 0


# ------------------------------------------------------- quadratic reduction

def test_quadratic_round_frozen():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        q = quadratic_and_roots(Profile(1, (0.5,)), math.pi / 4, math.pi / 4)
    assert (q.A, q.B, q.C) == pytest.approx((-2.0, 4.0, -2.0), abs=1e-12)
    assert sorted(q.roots) == pytest.approx([1.0, 1.0], abs=1e-8)


def test_quadratic_roots_sector_guarantee_warning(monkeypatch):
    # the warning comes once per process; start this test from a fresh one
    monkeypatch.setattr(isometry, "_low_d_warned", False)
    with pytest.warns(UserWarning):
        quadratic_and_roots(ELLIPSE, 0.5, 0.55)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        quadratic_and_roots(ELLIPSE, 0.6, 0.65)  # already warned
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        quadratic_and_roots(WOBBLE3, 0.5, 0.55)  # d=3: no warning


@given(st.floats(0.15, 0.85), st.floats(0.15, 0.85), st.floats(-0.04, 0.04))
@settings(max_examples=60, deadline=None)
def test_quadratic_roots_satisfy_quadratic(t_frac, th_frac, c1):
    f = Profile(3, (0.5, c1, 0.004))
    t = t_frac * math.pi / 3
    theta = th_frac * math.pi / 3
    q = quadratic_and_roots(f, t, theta)
    for r in q.roots:
        assert abs(q.A * r * r + q.B * r + q.C) < 1e-10


# ------------------------------------------------------------ branch solves

def test_branch_one_frozen_endpoint():
    sol = integrate_branch(Profile(1, (0.5,)), "one", math.pi / 4,
                           math.atan(2.0), math.pi / 3)
    # closed form theta = atan(2 tan t)
    assert sol.thetas[-1] == pytest.approx(1.289761425292083, abs=1e-9)


def test_branch_two_tracks_legendre():
    t0 = 0.4
    sol = integrate_branch(ELLIPSE, "two", t0, theta_legendre(ELLIPSE, t0), 1.1)
    err = max(abs(th - theta_legendre(ELLIPSE, float(t)))
              for t, th in zip(sol.ts[:: len(sol.ts) // 16],
                               sol.thetas[:: len(sol.ts) // 16]))
    assert err < 1e-9


# sha256 of the thetas of integrate_branch(f, branch, 0.3, theta0, 0.7),
# theta0 = 0.25 on branch one and theta_legendre(f, 0.3) on branch two,
# recorded before the steps took Python floats: a two-term profile (the
# Clenshaw kernel) and a four-term one (the rotation table, whose row was
# recorded again when that kernel replaced the cosine matrix); branch
# one's right side reads no jet of f, so its two rows agree
BRANCH_THETAS = {
    ((0.5, 0.05), "one"):
        "527178b53524efd3e001c55594a4784db9026b3aed6d021e50233b881f817167",
    ((0.5, 0.05), "two"):
        "de6fd1552f33e5b125686e468fefbb57bf33fb8495662707fc92866b399b7a69",
    ((0.5, 0.03, 0.01, 0.004), "one"):
        "527178b53524efd3e001c55594a4784db9026b3aed6d021e50233b881f817167",
    ((0.5, 0.03, 0.01, 0.004), "two"):
        "9bb6cd272945f699874debe37b52be432fcdac5f7f1e14a6b5ad727cbbdd2303",
}


@pytest.mark.parametrize("coeffs,branch", sorted(BRANCH_THETAS),
                         ids=lambda v: f"{len(v)}-term" if isinstance(v, tuple) else v)
def test_branch_thetas_keep_their_recorded_bits(coeffs, branch):
    f = Profile(3, coeffs)
    theta0 = 0.25 if branch == "one" else theta_legendre(f, 0.3)
    sol = integrate_branch(f, branch, 0.3, theta0, 0.7)
    assert sol.thetas.dtype == float and sol.thetas.shape == (4097,)
    assert hashlib.sha256(sol.thetas.tobytes()).hexdigest() == \
        BRANCH_THETAS[coeffs, branch]


def test_branch_rejects_unknown():
    with pytest.raises(ValueError):
        integrate_branch(ELLIPSE, "three", 0.4, 0.4, 0.9)


# ----------------------------------------------------------------- build_h

def test_build_h_identity_reproduces_f():
    t0 = math.pi / 4
    h = build_h_from_theta(ELLIPSE, identity_map(), t0,
                           ELLIPSE.evaluate(t0, 0))
    ts = np.linspace(0.06, math.pi / 2 - 0.06, 41)
    err = np.max(np.abs(h.evaluate(ts, 0) - ELLIPSE.evaluate(ts, 0)))
    assert err < 1e-10


def test_build_h_legendre_reproduces_dual():
    t0 = math.pi / 4
    f0, f1 = ELLIPSE.evaluate(t0, 0), ELLIPSE.evaluate(t0, 1)
    h0 = f0 / (4 * f0 * f0 + f1 * f1)
    h = build_h_from_theta(ELLIPSE, legendre_map_tag(), t0, h0)
    dual = DualProfile(ELLIPSE)
    ths = np.linspace(0.06, math.pi / 2 - 0.06, 41)
    err = max(abs(h.evaluate(float(th), 0) - dual.evaluate(float(th), 0))
              for th in ths)
    assert err < 1e-10


@given(st.floats(0.3, 3.0))
@settings(max_examples=10, deadline=None)
def test_build_h_scale_equivariant(lam):
    t0 = 0.7
    base = build_h_from_theta(ELLIPSE, identity_map(), t0, 1.0)
    scaled = build_h_from_theta(ELLIPSE, identity_map(), t0, lam)
    for t in (0.2, 0.8, 1.3):
        assert scaled.evaluate(t, 0) == pytest.approx(
            lam * base.evaluate(t, 0), rel=1e-10)


def _two_call_samples(f, theta, theta0, h0, grid_size):
    """(ts, log h, integrand values) of build_h_from_theta's integration on
    its whole t grid; this integrand hands no theta on, so a caller takes
    theta from a theta_jet call of its own."""
    lo, hi = isometry.INTERIOR_GUARD, math.pi / f.d - isometry.INTERIOR_GUARD

    def integrand(ts):
        th, thp = theta_jet(theta, f, ts, 1)
        f0, f1 = f.jet(ts, 1)
        with np.errstate(divide="ignore", invalid="ignore"):
            rhs = ((2 * np.sin(ts) ** 2 + np.sin(ts) * np.cos(ts) * f1 / f0)
                   / (np.sin(th) * np.cos(th)) - 2 * np.tan(th))
            vals = rhs * thp
        sick = np.flatnonzero(np.abs(np.cos(th)) < 1e-6)
        if sick.size and sick.size < ts.size - 4:
            healthy = np.flatnonzero(np.abs(np.cos(th)) >= 1e-6)
            for i in sick:
                near = healthy[np.argsort(np.abs(ts[healthy] - ts[i]))[:5]]
                vals[i] = np.polyfit(ts[near] - ts[i], vals[near], 2)[-1]
        return vals

    half = grid_size // 2
    t_fwd = np.linspace(theta0, hi, half + 1)
    t_bwd = np.linspace(lo, theta0, half + 1)
    v_fwd, v_bwd = integrand(t_fwd), integrand(t_bwd)
    log_fwd = _cumulative_simpson(v_fwd, t_fwd)
    log_bwd = _cumulative_simpson(v_bwd, t_bwd)
    log_bwd -= log_bwd[-1]
    logs = np.concatenate([log_bwd, log_fwd[1:]]) + math.log(h0)
    return (np.concatenate([t_bwd, t_fwd[1:]]), logs,
            np.concatenate([v_bwd, v_fwd[1:]]))


def _two_call_build_h(f, theta, theta0, h0, grid_size=2048):
    """build_h_from_theta with theta and theta' on the whole grid from a
    second theta_jet call, after the integrand's."""
    ts, logs, vals = _two_call_samples(f, theta, theta0, h0, grid_size)
    th, thp = theta_jet(theta, f, ts, 1)
    log_h = isometry._lobatto_log_h(f.d, grid_size, th, logs, vals / thp)
    return lobatto_fit(f.d, np.exp(log_h))[0]


def _lstsq_build_h(f, theta, theta0, h0, grid_size=2048):
    """The build as it was before it read log h at Lobatto nodes: the
    integrated samples at theta(t) fitted by lstsq (`sampled_profile`), the
    reference of the accuracy tests."""
    ts, logs, _ = _two_call_samples(f, theta, theta0, h0, grid_size)
    return sampled_profile(f.d, theta_jet(theta, f, ts, 0)[0], np.exp(logs))


@pytest.mark.parametrize("kind", isometry.THETA_KINDS)
def test_build_h_takes_theta_from_the_integrand_with_the_bits_of_two_calls(kind):
    for f in (Profile(1, (0.55, 0.04, 0.01)), ELLIPSE, WOBBLE3):
        end = math.pi / f.d
        grid, rest = np.linspace(0.0, end, 9), np.linspace(end / 3, end, 7)
        tm = {"identity": identity_map(), "legendre": legendre_map_tag(),
              "linear": ThetaMap(kind="linear", params=(1.3, 0.8)),
              "scaled-legendre": ThetaMap(kind="scaled-legendre", params=(1.3, 0.8)),
              "sampled": ThetaMap(kind="sampled", grid=tuple(grid),
                                  values=tuple(theta_legendre(f, grid))),
              # Legendre, then monotone cubics through its values: pieces that meet
              "piecewise": ThetaMap(kind="piecewise", pieces=(
                  (0.0, end / 3, legendre_map_tag()),
                  (end / 3, end, ThetaMap(kind="sampled", grid=tuple(rest),
                                          values=tuple(theta_legendre(f, rest))))))}[kind]
        t0 = end / 2  # on d = 1 the identity's theta hits pi/2 there
        h = build_h_from_theta(f, tm, t0, f.evaluate(t0, 0))
        assert h == _two_call_build_h(f, tm, t0, f.evaluate(t0, 0)), f


@pytest.mark.parametrize("f, tm", [
    (ELLIPSE, ThetaMap(kind="piecewise", pieces=(
        (0.0, math.pi / 6, identity_map()),   # theta drops by 0.18 at pi/6
        (math.pi / 6, math.pi / 2, ThetaMap(kind="linear", params=(1.3, 0.8)))))),
    (Profile(2, (1.0, 2.0)), legendre_map_tag()),   # f < 0: theta turns back
], ids=["discontinuous-piecewise", "legendre-of-invalid-f"])
def test_build_h_rejects_a_theta_that_does_not_increase(f, tm):
    with pytest.raises(ValueError, match="theta does not increase along the "
                                         "integration: invalid theta map"):
        build_h_from_theta(f, tm, math.pi / 4, 1.0)


def test_build_h_rejects_nonpositive_anchor():
    with pytest.raises(ValueError):
        build_h_from_theta(ELLIPSE, identity_map(), 0.7, 0.0)


@pytest.mark.parametrize("h0", (0.0, -1.0, math.nan, math.inf, -math.inf))
def test_build_h_names_an_anchor_that_is_not_positive_finite(h0):
    # NaN and inf once passed `h0 <= 0` and were blamed on the theta map
    with pytest.raises(ValueError, match=re.escape(
            f"h0 must be a positive finite number, got {h0!r}")):
        build_h_from_theta(ELLIPSE, identity_map(), 0.7, h0)


def _legendre_anchor(f, t0):
    f0, f1 = f.jet(t0, 1)
    return f0 / (4 * f0 * f0 + f1 * f1)


def _assert_near_reference(h, ref, exact_err):
    """The Lobatto build h is within 2x the lstsq build ref's error, and
    within perfbench's FIT_FACTOR * fit_residual + FIT_FLOOR of the truth;
    exact_err maps a profile to its max error."""
    err = exact_err(h)
    assert err <= 2.0 * exact_err(ref) + 1e-15
    assert err <= 10.0 * h.fit_residual + 1e-12


@given(st.sampled_from((1, 2, 3)), st.floats(-0.95, 0.95))
@settings(max_examples=25, deadline=None)
def test_build_h_legendre_matches_the_exact_dual_as_the_lstsq_build(d, frac):
    bound = {1: 1.0, 2: 1.0, 3: 2.0 / 7.0}[d]
    f = Profile(d, (1.0, frac * bound))
    t0 = math.pi / (2 * d)
    ths = np.linspace(0.0, math.pi / d, 1001)
    exact = DualProfile(f).evaluate(ths)
    h0 = _legendre_anchor(f, t0)
    _assert_near_reference(
        build_h_from_theta(f, legendre_map_tag(), t0, h0),
        _lstsq_build_h(f, legendre_map_tag(), t0, h0),
        lambda p: np.max(np.abs(p.evaluate(ths) - exact)))


@pytest.mark.parametrize("grid_size", (4, 101))
def test_build_h_grid_sizes_match_the_exact_dual_as_the_lstsq_build(grid_size):
    # N + 1 Lobatto nodes give min(32, (N + 1) // 2) terms, for odd N too
    t0 = math.pi / 4
    ths = np.linspace(0.0, math.pi / 2, 1001)
    exact = DualProfile(ELLIPSE).evaluate(ths)
    h0 = _legendre_anchor(ELLIPSE, t0)
    h = build_h_from_theta(ELLIPSE, legendre_map_tag(), t0, h0, grid_size)
    assert len(h.cos_coeffs) == min(32, (grid_size + 1) // 2)
    _assert_near_reference(
        h, _lstsq_build_h(ELLIPSE, legendre_map_tag(), t0, h0, grid_size),
        lambda p: np.max(np.abs(p.evaluate(ths) - exact)))


@pytest.mark.parametrize("f", (Profile(1, (0.55, 0.04, 0.01)), ELLIPSE, WOBBLE3))
def test_build_h_identity_map_gives_f_as_the_lstsq_build(f):
    t0 = math.pi / (2 * f.d)
    ths = np.linspace(0.0, math.pi / f.d, 1001)
    _assert_near_reference(
        build_h_from_theta(f, identity_map(), t0, f.evaluate(t0, 0)),
        _lstsq_build_h(f, identity_map(), t0, f.evaluate(t0, 0)),
        lambda p: np.max(np.abs(p.evaluate(ths) - f.evaluate(ths))))


@pytest.mark.parametrize("f", (Profile(1, (0.55, 0.04, 0.01)), ELLIPSE))
def test_build_h_linear_map_meets_its_samples_as_the_lstsq_build(f):
    # h of a linear map is its integrated samples; the map takes pi/d to
    # pi/d, as an equivariant map must, only for d <= 2
    t0, tm = math.pi / (2 * f.d), ThetaMap(kind="linear", params=(1.3, 0.8))
    ts, logs, _ = _two_call_samples(f, tm, t0, 1.0, 2048)
    th = theta_jet(tm, f, ts, 0)[0]
    _assert_near_reference(
        build_h_from_theta(f, tm, t0, 1.0), _lstsq_build_h(f, tm, t0, 1.0),
        lambda p: np.max(np.abs(p.evaluate(th) - np.exp(logs))))


# --------------------------------------------------------- isometry checks

def test_identity_map_is_isometry():
    nm = PlanarNorm(ELLIPSE)
    res = check_hessian_isometry(nm, nm, lambda X: X, samples=10)
    assert res.max_metric_residual < 1e-9


def test_legendre_map_is_isometry():
    nm = PlanarNorm(ELLIPSE)
    dual_nm = PlanarNorm(DualProfile(ELLIPSE))
    res = check_hessian_isometry(nm, dual_nm,
                                 lambda X: legendre_map(nm, X), samples=10)
    assert res.max_metric_residual < 1e-8


def test_rotation_is_not_isometry():
    nm = PlanarNorm(ELLIPSE)
    R = np.array([[0.0, -1.0], [1.0, 0.0]])
    res = check_hessian_isometry(nm, nm, lambda X: X @ R.T, samples=10)
    assert res.max_metric_residual > 1e-2


# -------------------------------------------------------------- d-property

def test_legendre_has_d_property():
    nm = PlanarNorm(ELLIPSE)
    dual_nm = PlanarNorm(DualProfile(ELLIPSE))
    phi = lambda X: legendre_map(nm, X)
    for k in range(ELLIPSE.d):
        dec = Decomposition(angle=-k * math.pi / ELLIPSE.d)
        res = check_d_property(nm, dual_nm, phi, dec, samples=12)
        assert res.max_residual < 1e-8


def test_rotation_fails_d_property():
    nm = PlanarNorm(ELLIPSE)
    R = np.array([[0.0, -1.0], [1.0, 0.0]])
    res = check_d_property(nm, nm, lambda X: X @ R.T,
                           Decomposition(angle=0.0), samples=12)
    assert res.max_residual > 1e-3


def test_planar_sample_points_draw_as_the_per_sample_loop():
    for d in (1, 2, 3):
        rng = np.random.default_rng(d)
        want = []
        for _ in range(50):  # t then r, sample by sample
            t = rng.uniform(0.05, math.pi / d - 0.05)
            want.append(rng.uniform(0.6, 1.4) * np.array([math.cos(t), math.sin(t)]))
        got = isometry._sample_points(PlanarNorm(Profile(d, (1.0,))), 50, d)
        assert np.array_equal(got, want)


@pytest.mark.parametrize("spec", ["d1:3", "d2:4:2", "d2:8:3", "cartan3"])
def test_induced_sample_points_are_one_leaf_draw(spec, monkeypatch):
    m = parse_model(spec)
    calls = []

    def counted(*args, **kw):
        calls.append(args[2])
        return random_leaf_points(*args, **kw)

    monkeypatch.setattr(foliation, "random_leaf_points", counted)
    X = isometry._sample_points(InducedNorm(m, Profile(m.d, (1.0,))), 20, seed=9)
    assert calls == [20]
    # (t, r) of each sample in one draw, then the leaf points from its stream
    rng = np.random.default_rng(9)
    t, r = rng.uniform([0.1, 0.6], [math.pi / m.d - 0.1, 1.4], (20, 2)).T
    assert np.array_equal(X, r[:, None] * random_leaf_points(
        m, t, 20, seed=int(rng.integers(2 ** 31))))
    rt = t_coord(m, X)
    assert np.max(np.abs(rt.r - r)) < 1e-14 and np.max(np.abs(rt.t - t)) < 1e-13


def _per_sample_d(norm1, norm2, phi, dec, samples, seed):
    """check_d_property one sample at a time, as it was before it took rows:
    one-point tensors and one-point projections."""
    def tensor(norm, x):
        if isinstance(norm, PlanarNorm):
            return fundamental_tensor(norm, x)
        return closed_fundamental_tensor(norm, x)

    def x2(x):
        if dec.angle is not None:
            u = np.array([math.cos(dec.angle), math.sin(dec.angle)])
            return x - np.dot(x, u) * u
        Q = np.asarray(dec.vprime, dtype=float)
        Q = Q[:, None] if Q.ndim == 1 else Q
        return x - Q @ (Q.T @ x)

    form = lambda norm, x: float(x2(x) @ tensor(norm, x) @ x)
    X = isometry._sample_points(norm1, samples, seed)
    return max([0.0] + [abs(form(norm1, x) - form(norm2, y)) for x, y in zip(X, phi(X))])


def test_planar_check_d_property_has_the_bits_of_the_per_sample_loop():
    nm = PlanarNorm(ELLIPSE)
    R = np.array([[0.0, -1.0], [1.0, 0.0]])
    for norm2, phi in ((PlanarNorm(DualProfile(ELLIPSE)), lambda X: legendre_map(nm, X)),
                       (nm, lambda X: X @ R.T)):
        for angle in (0.0, -math.pi / 2, 0.3):
            dec = Decomposition(angle=angle)
            got = check_d_property(nm, norm2, phi, dec, samples=30, seed=2)
            assert got.max_residual == _per_sample_d(nm, norm2, phi, dec, 30, 2)


def test_signed_residual_equals_ode_residual():
    # on the unit sphere of the norm, the pointwise decomposition residual
    # at angle -k pi/d is exactly the k-th first-order equation residual
    f = Profile(2, (1.0, 0.15, 0.01))
    tr = _identity_triple(f)
    nm = PlanarNorm(f)
    phi = lambda X: X
    ts = (0.3, 0.8, 1.2)
    ode = ode_residuals(tr, np.array(ts))
    for k in range(f.d):
        dec = Decomposition(angle=-k * math.pi / f.d)
        for i, t in enumerate(ts):
            x = indicatrix_point(nm, t)
            lhs = d_residuals(nm, nm, phi, dec, x[None])[0]
            rhs = 2.0 * f.evaluate(t, 0) * ode[k + 1, i]
            assert lhs == pytest.approx(rhs, abs=1e-8)


# ------------------------------------------------------------------- glue

def _two_sector_result():
    base = bump_profile(3, humps=[(0.24, 0.4), (0.78, 0.36)])
    sectors = [Sector(0.0, 0.52, "scale"),
               Sector(0.52, math.pi / 3, "legendre-scale")]
    return glue_construct(base, sectors)


def test_glue_two_sectors_residuals():
    res = _two_sector_result()
    assert res.max_band_residual < 1e-6
    ts = np.linspace(1e-3, math.pi / 3 - 1e-3, 257)
    assert np.max(np.abs(ode_residuals(res.triple, ts))) < 1e-6


def test_glue_band_residual_has_the_bits_of_the_per_angle_loop():
    base = bump_profile(2, humps=[(0.3, 0.3), (1.3, 0.3)])
    breaks = (0.7, 0.95)
    res = glue_construct(base, [Sector(0.0, 0.7, "scale"),
                                Sector(0.7, 0.95, "legendre-scale"),
                                Sector(0.95, math.pi / 2, "scale")])
    worst = 0.0
    for b in breaks:
        for t in np.linspace(b - 0.01, b + 0.01, 33):
            worst = max(worst, float(np.max(np.abs(ode_residuals(res.triple, t)))))
    assert res.max_band_residual == worst
    assert 0.0 < worst < 1e-6


def test_glue_single_scale_sector_is_scaling_triple():
    base = bump_profile(2, humps=[(0.6, 0.5)])
    res = glue_construct(base, [Sector(0.0, math.pi / 2, "scale", 1.3)])
    assert res.triple.theta.kind == "identity"
    assert res.max_band_residual == 0.0  # no break, so no band
    assert res.scale == pytest.approx(1.3)
    for t in (0.3, 0.9):
        assert res.triple.h.evaluate(t, 0) == pytest.approx(
            base.evaluate(t, 0) / 1.69, rel=1e-12)


def test_glue_single_legendre_sector_is_legendre_triple():
    base = bump_profile(2, humps=[(0.7, 0.5)])
    res = glue_construct(base,
                         [Sector(0.0, math.pi / 2, "legendre-scale", 1.0)])
    assert res.triple.theta.kind == "legendre"
    ts = np.linspace(0.05, math.pi / 2 - 0.05, 65)
    assert np.max(np.abs(ode_residuals(res.triple, ts))) < 1e-9


def test_glue_rejects_coverage_gap():
    base = bump_profile(2, humps=[(0.7, 0.4)])
    with pytest.raises(ValueError):
        glue_construct(base, [Sector(0.0, 0.5, "scale"),
                              Sector(0.9, math.pi / 2, "legendre-scale")])


def test_glue_rejects_scale_mismatch():
    base = bump_profile(2, humps=[(0.9, 0.4)])
    with pytest.raises(ValueError):
        glue_construct(base, [Sector(0.0, 0.5, "scale", 1.0),
                              Sector(0.5, math.pi / 2, "scale", 2.0)])


def test_glue_rejects_nonround_band():
    # hump sits right on the seam: the blend band is not round there
    base = bump_profile(2, humps=[(0.5, 0.4)])
    with pytest.raises(ValueError):
        glue_construct(base, [Sector(0.0, 0.5, "scale"),
                              Sector(0.5, math.pi / 2, "legendre-scale")])


def test_bump_profile_keeps_its_residual_through_json(tmp_path):
    # it was saved as a plain series without its fit error (8.6e-12)
    base = bump_profile(2, [(0.5, 0.4)])
    assert base.fit_residual > 0
    for p in (base, base.scaled(2.0)):
        save_profile(p, tmp_path / "bump.json")
        q = load_profile(tmp_path / "bump.json")
        assert q == p and q.fit_residual == p.fit_residual
    assert q.fit_residual == 2.0 * base.fit_residual


def test_bump_profile_dct_fit_keeps_the_lstsq_residual():
    # the 8193 samples are Lobatto points: one DCT fits them, where a dense
    # lstsq read a residual of 6.7824e-13; the base stays round off its humps
    base = bump_profile(3, humps=[(0.24, 0.4), (0.78, 0.36)])
    assert len(base.cos_coeffs) == 96
    assert abs(base.fit_residual - 6.782352457435081e-13) < 1e-14
    for lo, hi in ((0.44, 0.6), (0.51, 0.53), (0.96, math.pi / 3)):
        f0, f1, f2 = base.jet(np.linspace(lo, hi, 2001), 2)
        assert np.max(np.abs(f0 - 0.5)) < 1e-12
        assert np.max(np.abs(f1)) < 1e-9 and np.max(np.abs(f2)) < 1e-6


def test_bump_profile_round_on_gaps():
    base = bump_profile(3, humps=[(0.24, 0.4)])
    for t in (0.55, 0.8, 1.0):
        assert base.evaluate(t, 0) == pytest.approx(0.5, abs=1e-7)
        assert abs(base.evaluate(t, 2)) < 1e-6


# ---------------------------------------------------------------- classify

def test_classify_legendre_triple():
    labels = classify_sectors(_legendre_triple(ELLIPSE))
    assert len(labels) == 1
    assert labels[0].label == "legendre"


def test_classify_identity_triple():
    labels = classify_sectors(_identity_triple(WOBBLE3))
    assert len(labels) == 1
    assert labels[0].label == "identity"


def test_classify_glued_triple():
    res = _two_sector_result()
    labels = classify_sectors(res.triple)
    kinds = [s.label for s in labels]
    assert kinds == ["identity", "legendre"]
    # the seam between the runs sits at the sector boundary
    assert labels[0].hi == pytest.approx(0.52, abs=0.01)


def _per_point_runs(tr, grid, tol):
    """classify_sectors' labels and runs by its per-point loops, as they
    were before they became array expressions."""
    ts = np.linspace(1e-3, math.pi / tr.f.d - 1e-3, grid)
    th = theta_jet(tr.theta, tr.f, ts, 0)[0]
    leg = theta_legendre(tr.f, ts)
    is_id, is_leg = np.abs(th - ts) < tol, np.abs(th - leg) < tol
    raw = np.where(is_id & ~is_leg, 0, np.where(is_leg & ~is_id, 1,
                   np.where(is_id & is_leg, 2, 3)))
    labels = raw.copy()
    definite = np.where(raw < 2)[0]
    if len(definite) == 0:
        labels[:] = np.where(raw == 2, 0, 3)
    else:
        for i in np.where(raw == 2)[0]:
            labels[i] = raw[definite[np.argmin(np.abs(definite - i))]]
    names = {0: "identity", 1: "legendre", 3: "transition"}
    out, start = [], 0
    for i in range(1, grid + 1):
        if i == grid or labels[i] != labels[start]:
            out.append((float(ts[start]), float(ts[i - 1]), names[int(labels[start])]))
            start = i
    return out


def test_classify_runs_equal_the_per_point_loop():
    glued = _two_sector_result().triple
    bumpy = Profile(2, (1.0, 0.02, 0.01))
    wavy = ThetaMap(kind="sampled", grid=tuple(ROW_GRID),
                    values=tuple(ROW_GRID + 0.003 * np.sin(4 * ROW_GRID)))
    for tr in (glued, _legendre_triple(ELLIPSE), _identity_triple(WOBBLE3),
               IsometryTriple(f=bumpy, h=bumpy, theta=wavy),
               IsometryTriple(f=bumpy, h=bumpy, theta=ROW_THETAS["piecewise"])):
        for grid in (0, 1, 2, 97, 512):
            for tol in (1e-12, 1e-6, 1e-3, 0.1):
                got = [tuple(s) for s in classify_sectors(tr, grid=grid, tol=tol)]
                assert got == _per_point_runs(tr, grid, tol), (grid, tol)


# -------------------------------------------------------------------- lift

def test_planar_lift_of_legendre_triple_is_gradient_map():
    tr = _legendre_triple(ELLIPSE)
    nm = PlanarNorm(ELLIPSE)
    phi = planar_lift_map(tr)
    rng = np.random.default_rng(3)
    X = 1.3 * indicatrix_point(nm, rng.uniform(0.0, 2.0 * math.pi, 20))
    assert np.allclose(phi(X), legendre_map(nm, X), atol=1e-9)


def test_planar_lift_identity_triple():
    tr = _identity_triple(ELLIPSE)
    phi = planar_lift_map(tr)
    X = np.array([[0.4, 0.7]])
    assert np.allclose(phi(X), X, atol=1e-12)


# ---------------------------------------------------------- maps on rows

LIFT_MODELS = ("d1:3", "d2:4:2", "cartan3")
LIFT_BASE = {1: Profile(1, (0.55, 0.04, 0.01)), 2: Profile(2, (1.0, 0.15, 0.01)),
             3: WOBBLE3}
# glue bases (humps) and break angles, round around each break
LIFT_GLUE = {1: ([(1.0, 0.8)], 2.0), 2: ([(0.5, 0.4)], 0.9),
             3: ([(0.24, 0.4), (0.78, 0.36)], 0.52)}


@pytest.fixture(scope="module")
def lift_triples():
    out = {}
    for d, f in LIFT_BASE.items():
        t0 = math.pi / (2 * d)
        humps, brk = LIFT_GLUE[d]
        out[d] = {"identity": _identity_triple(f), "legendre": _legendre_triple(f),
                  "glued": glue_construct(bump_profile(d, humps), [
                      Sector(0.0, brk, "scale"),
                      Sector(brk, math.pi / d, "legendre-scale")]).triple}
        for kind in ("linear", "scaled-legendre"):
            tm = ThetaMap(kind=kind, params=(1.3, 0.8))
            out[d][kind] = IsometryTriple(
                f=f, h=build_h_from_theta(f, tm, t0, f.evaluate(t0, 0)),
                theta=tm)
    return out


@pytest.mark.parametrize("spec", LIFT_MODELS)
def test_lifts_map_rows_with_the_bits_of_one_row_calls(spec, lift_triples):
    m = parse_model(spec)
    angles = np.linspace(-7.0, 7.0, 57)
    P = np.stack([np.cos(angles), np.sin(angles)], axis=-1) * 1.1
    for name, tr in lift_triples[m.d].items():
        phi = lift_to_nd(tr, m)
        X = isometry._sample_points(InducedNorm(m, tr.f), 8, seed=4)
        Y = phi(X)
        assert Y.shape == X.shape
        assert np.array_equal(Y, [phi(x[None])[0] for x in X]), name
        phi2 = planar_lift_map(tr)
        assert np.array_equal(phi2(P), [phi2(p[None])[0] for p in P]), name


@pytest.mark.parametrize("d", (1, 2, 3))
def test_planar_lift_is_dihedrally_equivariant(d, lift_triples):
    # phi(g P) = g phi(P) for the rotation by 2 pi/d, the reflection
    # (x, y) -> (x, -y) and their product, off the principal sector too
    a = np.random.default_rng(d).uniform(-2.0 * math.pi, 2.0 * math.pi, 200)
    P = 1.1 * np.stack([np.cos(a), np.sin(a)], axis=-1)
    c, s = math.cos(2.0 * math.pi / d), math.sin(2.0 * math.pi / d)
    rot, ref = np.array([[c, -s], [s, c]]), np.diag([1.0, -1.0])
    for name in ("identity", "legendre", "linear", "glued"):
        phi = planar_lift_map(lift_triples[d][name])
        Y = phi(P)
        for g in (rot, ref, rot @ ref):
            err = np.linalg.norm(phi(P @ g.T) - Y @ g.T, axis=1)
            assert np.max(err / np.linalg.norm(Y, axis=1)) <= 4e-15, name


@pytest.mark.parametrize("spec", LIFT_MODELS)
def test_lift_of_a_point_on_a_focal_set_gets_the_guard_band_error(spec, lift_triples):
    # the lift's guard comes before w, which degenerates there
    m = parse_model(spec)
    x = 1.2 * np.eye(m.n)[:1]  # t = 0 on every model
    phi = lift_to_nd(lift_triples[m.d]["legendre"], m)
    for call in (phi, phi.jacobian):
        with pytest.raises(FocalProximityError, match="inside the focal guard band"):
            call(x)


def test_lift_names_a_one_point_input(lift_triples):
    # a 1-D point ended in numpy's IndexError on _polar's float radius
    m = parse_model("d2:4:2")
    phi = lift_to_nd(lift_triples[2]["legendre"], m)
    x = np.array([1.0, 0.2, 0.3, 0.1])
    for call in (phi, phi.jacobian):
        for bad in (x, x[None, None], 1.0):
            with pytest.raises(ValueError, match=r"takes \(m, 4\) rows"):
                call(bad)
        with pytest.raises(ValueError, match="has shape"):  # a row of the wrong n
            call(x[None, :3])
    assert np.array_equal(phi(x[None]), phi.jacobian(x[None])[0])


JACOBIAN_MODELS = ("d1:3", "d2:4:2", "d2:8:3", "cartan3")


def _richardson_jacobian(phi, X, step):
    """Columns d phi / dx_i at each row of X by Richardson's extrapolation
    of central differences at steps h and 2h, h = step |x|: error O(h^4)."""
    h = step * np.linalg.norm(X, axis=1)[:, None]
    J = np.empty(X.shape + X.shape[-1:])
    for i, e in enumerate(np.eye(X.shape[1])):
        d1, d2 = ((phi(X + k * h * e) - phi(X - k * h * e)) / (2 * k * h)
                  for k in (1, 2))
        J[:, :, i] = (4 * d1 - d2) / 3
    return J


@pytest.mark.parametrize("spec", JACOBIAN_MODELS)
def test_lift_jacobian_matches_richardson_differences(spec, lift_triples):
    m = parse_model(spec)
    for name, tr in lift_triples[m.d].items():
        phi = lift_to_nd(tr, m)
        X = isometry._sample_points(InducedNorm(m, tr.f), 12, seed=4)
        Y, J = phi.jacobian(X)
        assert Y.shape == X.shape and J.shape == X.shape + (m.n,)
        err = np.max(np.abs(J - _richardson_jacobian(phi, X, 1e-4)))
        assert err <= 1e-9 * np.max(np.abs(J)), name


@pytest.mark.parametrize("spec", JACOBIAN_MODELS)
def test_lift_jacobian_is_euler_on_x_and_scales_each_curvature_space(
        spec, lift_triples):
    m = parse_model(spec)
    for name, tr in lift_triples[m.d].items():
        X = isometry._sample_points(InducedNorm(m, tr.f), 6, seed=5)
        Y, J = lift_to_nd(tr, m).jacobian(X)
        # Phi has degree 1, so J x = Phi(x)
        assert np.max(np.abs((J @ X[:, :, None])[..., 0] - Y)) < 1e-14, name
        r, t = t_coord(m, X)
        th = theta_jet(tr.theta, tr.f, t, 0)[0]
        rho = np.sqrt(tr.f.evaluate(t, 0) / tr.h.evaluate(th, 0))
        for x, Jx, t_x, th_x, rho_x in zip(X, J, t, th, rho):
            for eig in shape_spectrum(m, x):
                tau = eig.k * math.pi / m.d
                scale = rho_x * math.sin(th_x + tau) / math.sin(t_x + tau)
                E = eig.basis.T  # the eigenvectors as columns
                assert np.max(np.abs(Jx @ E - scale * E)) < 1e-13, (name, eig.k)


@pytest.mark.parametrize("spec", JACOBIAN_MODELS)
def test_lift_jacobian_rows_have_the_bits_of_phi_and_of_one_row_calls(
        spec, lift_triples):
    m = parse_model(spec)
    for name, tr in lift_triples[m.d].items():
        phi = lift_to_nd(tr, m)
        X = isometry._sample_points(InducedNorm(m, tr.f), 8, seed=6)
        Y, J = phi.jacobian(X)
        assert np.array_equal(Y, phi(X)), name
        rows = [phi.jacobian(x[None]) for x in X]
        assert np.array_equal(Y, [y[0] for y, _ in rows]), name
        assert np.array_equal(J, [j[0] for _, j in rows]), name


def _per_sample_check(norm1, norm2, phi, samples, seed, fd_step=1e-5):
    """check_hessian_isometry one sample at a time, with two one-point
    closed-form tensors each: a map with a `jacobian` takes one one-row
    jacobian call per sample, any other map 1 + 2n one-row phi calls, as
    the check was before it took rows."""
    def tensor(norm, x):
        if isinstance(norm, PlanarNorm):
            return fundamental_tensor(norm, x)
        return closed_fundamental_tensor(norm, x)

    one = lambda x: phi(x[None])[0]
    worst = 0.0
    for x in isometry._sample_points(norm1, samples, seed):
        if hasattr(phi, "jacobian"):
            y, J = (a[0] for a in phi.jacobian(x[None]))
        else:
            step = fd_step * float(np.linalg.norm(x))
            J = np.empty((len(x), len(x)))
            for i in range(len(x)):
                e = np.zeros(len(x))
                e[i] = step
                J[:, i] = (one(x + e) - one(x - e)) / (2 * step)
            y = one(x)
        g2 = tensor(norm2, y)
        worst = max(worst, float(np.max(np.abs(tensor(norm1, x) - J.T @ g2 @ J))))
    return worst


def _unchecked_norm(m, profile):
    """InducedNorm(m, profile) without its Minkowski check, for the bits tests'
    targets that are not norms (cartan3's linear and scaled-Legendre h)."""
    nm = InducedNorm.__new__(InducedNorm)
    object.__setattr__(nm, "foliation", m)
    object.__setattr__(nm, "profile", profile)
    return nm


@pytest.mark.parametrize("spec", LIFT_MODELS)
def test_check_hessian_isometry_has_the_bits_of_the_per_sample_loop(
        spec, lift_triples):
    m = parse_model(spec)
    for name, tr in lift_triples[m.d].items():
        # on cartan3 the linear-map targets are not norms; the bits still count
        nm1, nm2 = InducedNorm(m, tr.f), _unchecked_norm(m, tr.h)
        phi = lift_to_nd(tr, m)  # its exact differential, one row at a time
        got = check_hessian_isometry(nm1, nm2, phi, samples=4, seed=9)
        assert got.max_metric_residual == _per_sample_check(nm1, nm2, phi, 4, 9), name
    # maps without a jacobian are differenced
    nm = PlanarNorm(ELLIPSE)
    R = np.array([[0.0, -1.0], [1.0, 0.0]])
    for norm2, phi in ((PlanarNorm(DualProfile(ELLIPSE)), lambda X: legendre_map(nm, X)),
                       (nm, lambda X: X @ R.T)):
        got = check_hessian_isometry(nm, norm2, phi, samples=6, seed=1)
        assert got.max_metric_residual == _per_sample_check(nm, norm2, phi, 6, 1)


@pytest.mark.parametrize("spec", LIFT_MODELS)
def test_check_d_property_has_the_bits_of_the_per_sample_loop(spec, lift_triples):
    m = parse_model(spec)
    rng = np.random.default_rng(2)
    for name, tr in lift_triples[m.d].items():
        nm1, nm2 = InducedNorm(m, tr.f), _unchecked_norm(m, tr.h)
        phi = lift_to_nd(tr, m)
        unit = rng.standard_normal(m.n)
        for vprime in (np.linalg.qr(rng.standard_normal((m.n, 2)))[0],
                       tuple(unit / np.linalg.norm(unit))):
            dec = Decomposition(vprime=vprime)
            got = check_d_property(nm1, nm2, phi, dec, samples=4, seed=9)
            assert got.max_residual == _per_sample_d(nm1, nm2, phi, dec, 4, 9), name


@pytest.mark.parametrize("spec", LIFT_MODELS)
def test_induced_norm_paths_make_no_energy_call(spec, lift_triples,
                                                 monkeypatch):
    # G comes from the closed form; only the FD oracle differences E
    m = parse_model(spec)
    calls = []
    energy = hessian.energy
    monkeypatch.setattr(hessian, "energy",
                        lambda nm, x: calls.append(len(x)) or energy(nm, x))
    tr = lift_triples[m.d]["legendre"]
    nm1, nm2 = InducedNorm(m, tr.f), InducedNorm(m, tr.h)
    phi = lift_to_nd(tr, m)
    u = random_leaf_points(m, 0.4, 1, seed=5)[0]
    dec = Decomposition(vprime=np.eye(m.n)[:, :2])
    check_hessian_isometry(nm1, nm2, phi, samples=3)
    check_d_property(nm1, nm2, phi, dec, samples=3)
    d_residuals(nm1, nm2, phi, dec, 1.2 * u[None])
    riemann_fd(nm1, u)
    riemann_fd(nm2, u)
    shape_spectrum(m, u)
    assert calls == []
    fd_fundamental_tensor(nm1, u)
    assert calls == [1 + 2 * m.n * m.n]
