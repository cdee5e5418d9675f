"""Profile construction, evaluation, validity, and serialization."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isonorm.profile import (Profile, SectorProfile, convexity_gap,
                             dihedral_fold, from_phi, is_minkowski,
                             load_profile, profile_from_json_dict,
                             round_profile, sampled_profile, save_profile)

ELLIPSE = Profile(2, (1.0, 0.2))
# 1 - 0.01 cos 2t + 4.837e-4 cos 64t: a dip of the gap at t = pi/2 narrower
# than a 1024-point grid's spacing (scripts/derive_oracles.py derives it)
EXHIBIT = Profile(1, (1.0, 0.0, -0.01) + (0.0,) * 61 + (4.837e-4,))
EXHIBIT_GAP = -5.4121507e-4


# ---------------------------------------------------------------- evaluate

def test_eval_at_zero():
    assert ELLIPSE.evaluate(0.0, 0) == pytest.approx(1.2)
    assert ELLIPSE.evaluate(0.0, 1) == pytest.approx(0.0)


@pytest.mark.parametrize("t", [0.7, np.linspace(-1.0, 4.0, 33)],
                         ids=["scalar", "array"])
def test_jet_has_the_bits_of_evaluate(t):
    p = Profile(3, (0.5, 0.02, -0.004, 0.001))
    for k in range(4):
        jet = p.jet(t, k)
        assert len(jet) == k + 1
        for order, value in enumerate(jet):
            assert np.array_equal(value, p.evaluate(t, order))
    with pytest.raises(ValueError):
        p.jet(t, 4)


def test_second_derivative_node():
    # f'' = -0.8 cos 2t vanishes at pi/4
    assert ELLIPSE.evaluate(math.pi / 4, 2) == pytest.approx(0.0, abs=1e-14)


def test_eval_rejects_bad_order_and_nan():
    with pytest.raises(ValueError):
        ELLIPSE.evaluate(0.1, 4)
    with pytest.raises(ValueError):
        ELLIPSE.evaluate(float("nan"), 0)


def test_eval_vectorized():
    ts = np.linspace(-1.0, 1.0, 7)
    vals = ELLIPSE.evaluate(ts, 0)
    assert vals.shape == ts.shape
    assert vals[0] == pytest.approx(ELLIPSE.evaluate(float(ts[0]), 0))


@given(st.integers(0, 40))
def test_symmetry_exact(i):
    # even and 2pi/d-periodic to machine precision, not just approximately
    t = -2.0 + 0.13 * i
    for p in (ELLIPSE, Profile(3, (0.5, 0.05, 0.01))):
        assert p.evaluate(t, 0) == p.evaluate(-t, 0)
        assert p.evaluate(t, 0) == pytest.approx(
            p.evaluate(t + 2 * math.pi / p.d, 0), abs=1e-12)


@given(st.floats(-3.0, 3.0))
@settings(max_examples=40)
def test_first_derivative_matches_fd(t):
    h = 1e-5
    fd = (ELLIPSE.evaluate(t + h, 0) - ELLIPSE.evaluate(t - h, 0)) / (2 * h)
    assert ELLIPSE.evaluate(t, 1) == pytest.approx(fd, rel=1e-7, abs=1e-7)


def test_bad_d_rejected():
    with pytest.raises(ValueError):
        Profile(5, (0.5,))


# ------------------------------------------------------------------- gap

@given(st.floats(0.05, 0.95), st.floats(-3.0, 3.0))
@settings(max_examples=60)
def test_gap_closed_form_two_term(b, t):
    # for f = a + b cos 2t the criterion quantity is the constant 4(a^2-b^2)
    p = Profile(2, (1.0, b))
    assert convexity_gap(p, t) == pytest.approx(4.0 * (1.0 - b * b), abs=1e-10)


def test_gap_round():
    assert convexity_gap(round_profile(1), 0.3) == pytest.approx(1.0)


# ------------------------------------------------------------ is_minkowski

def test_validity_ellipse():
    rep = is_minkowski(ELLIPSE)
    assert rep.valid and rep.status == "valid"
    assert rep.min_gap == pytest.approx(3.84, abs=1e-8)


def test_validity_flip_at_equal_coeffs():
    for b, expect in ((0.2, True), (0.5, True), (0.99, True), (1.1, False)):
        rep = is_minkowski(Profile(2, (1.0, b)))
        assert rep.valid is expect
        assert rep.min_gap == pytest.approx(4.0 * (1.0 - b * b), abs=1e-12)


def test_validity_invalid_sign():
    rep = is_minkowski(Profile(2, (1.0, 1.1)))
    assert rep.status == "invalid"
    assert rep.min_gap == pytest.approx(-0.84, abs=1e-8)


def test_validity_sees_a_dip_between_grid_points():
    rep = is_minkowski(EXHIBIT)
    assert rep.status == "invalid"
    assert rep.min_gap == pytest.approx(convexity_gap(EXHIBIT, math.pi / 2), abs=1e-12)
    assert rep.min_gap == pytest.approx(EXHIBIT_GAP, abs=1e-9)
    assert rep.argmin == pytest.approx(math.pi / 2, abs=1e-12)


# ---------------------------------------------------------------- from_phi

def test_from_phi_constant_is_round():
    p = from_phi(lambda s: 1.0, b=1.0, mode="alpha-beta")
    ts = np.linspace(0, math.pi, 11)
    assert np.allclose(p.evaluate(ts, 0), 0.5, atol=1e-10)


def test_from_phi_randers_valid():
    p = from_phi(lambda s: 1.0 + 0.3 * s, b=1.0, mode="alpha-beta")
    assert p.evaluate(0.0, 0) == pytest.approx(0.845, abs=1e-9)
    # series of (1 + 0.3 cos t)^2 / 2
    assert p.cos_coeffs[0] == pytest.approx(0.5225, abs=1e-9)
    assert p.cos_coeffs[1] == pytest.approx(0.3, abs=1e-9)
    assert p.cos_coeffs[2] == pytest.approx(0.0225, abs=1e-9)
    assert is_minkowski(p).valid


def test_from_phi_sign_crossing_fails_validation():
    # phi(-1) < 0: the squared profile pinches to zero and the validity
    # check is the gate that rejects it
    p = from_phi(lambda s: 1.0 + 1.5 * s, b=1.0, mode="alpha-beta")
    assert not is_minkowski(p).valid


def test_from_phi_alpha1_alpha2():
    # phi'(0) = 0 so the dihedral extension is smooth at the focal angle
    # and the cosine fit is exact: (1 + 0.3 cos^2 t)^2 / 2
    p = from_phi(lambda s: 1.0 + 0.3 * s * s, mode="alpha1-alpha2")
    assert p.d == 2
    assert p.fit_residual < 1e-10
    assert p.evaluate(0.0, 0) == pytest.approx(0.845, abs=1e-9)
    assert p.evaluate(math.pi / 2, 0) == pytest.approx(0.5, abs=1e-9)
    assert is_minkowski(p).valid


def test_from_phi_bad_mode():
    with pytest.raises(ValueError):
        from_phi(lambda s: 1.0, mode="beta-gamma")


# ------------------------------------------------------------------- fold

@given(st.floats(-7.0, 7.0))
@settings(max_examples=40)
def test_dihedral_fold_reproduces_profile(t):
    p = Profile(3, (0.5, 0.03))
    tau, sign = dihedral_fold(t, 3)
    assert 0.0 <= tau <= math.pi / 3 + 1e-12
    assert p.evaluate(tau, 0) == pytest.approx(p.evaluate(t, 0), abs=1e-12)
    assert sign * p.evaluate(tau, 1) == pytest.approx(p.evaluate(t, 1),
                                                      abs=1e-12)


def test_dihedral_fold_array_matches_scalar():
    ts = np.linspace(-7.0, 7.0, 101)
    tau, sign = dihedral_fold(ts, 3)
    for t, ta, sa in zip(ts, tau, sign):
        assert (ta, sa) == dihedral_fold(float(t), 3)
    with pytest.raises(ValueError):
        dihedral_fold(np.array([0.1, math.nan]), 3)


# ---------------------------------------------------------------- sampled

def test_sampled_profile_recovers_series():
    ts = np.linspace(0, math.pi / 2, 257)
    vals = 1.0 + 0.2 * np.cos(2 * ts)
    p = sampled_profile(2, ts, vals)
    assert p.kind == "sampled"
    assert p.fit_residual < 1e-10
    assert p.cos_coeffs[0] == pytest.approx(1.0, abs=1e-9)
    assert p.cos_coeffs[1] == pytest.approx(0.2, abs=1e-9)


def test_scaled_profile():
    q = ELLIPSE.scaled(0.25)
    assert q.evaluate(0.3, 0) == pytest.approx(0.25 * ELLIPSE.evaluate(0.3, 0))
    assert convexity_gap(q, 0.3) == pytest.approx(
        0.0625 * convexity_gap(ELLIPSE, 0.3))


# ------------------------------------------------------------------- json

def test_json_round_trip_cosine(tmp_path):
    path = tmp_path / "p.json"
    save_profile(ELLIPSE, path)
    q = load_profile(path)
    assert q.d == 2 and q.cos_coeffs == ELLIPSE.cos_coeffs


def test_json_round_trip_sampled(tmp_path):
    ts = np.linspace(0, math.pi, 301)
    p = sampled_profile(1, ts, 0.5 + 0.01 * np.cos(2 * ts))
    path = tmp_path / "s.json"
    save_profile(p, path)
    q = load_profile(path)
    grid = np.linspace(0, math.pi, 37)
    assert np.allclose(q.evaluate(grid, 0), p.evaluate(grid, 0), atol=1e-12)


def test_json_unknown_kind():
    with pytest.raises(ValueError):
        profile_from_json_dict({"d": 1, "kind": "spline", "knots": []})


# ----------------------------------------------------------- sector pieces

def test_sector_profile_eval_and_fold():
    lo = Profile(2, (0.5,))
    hi = Profile(2, (0.5, 1e-3))
    sp = SectorProfile(d=2, breaks=(0.7,), pieces=(lo, hi))
    assert sp.evaluate(0.3, 0) == pytest.approx(0.5)
    assert sp.evaluate(1.0, 0) == pytest.approx(hi.evaluate(1.0, 0))
    # dihedral image of an angle beyond the sector folds back in
    assert sp.evaluate(math.pi / 2 + 0.3, 0) == pytest.approx(
        sp.evaluate(math.pi / 2 - 0.3, 0))


def test_sector_profile_array_matches_pointwise():
    lo = Profile(2, (0.5, 1e-3, 2e-4))
    hi = Profile(2, (0.5, -1e-3))
    sp = SectorProfile(d=2, breaks=(0.7,), pieces=(lo, hi))
    ts = np.concatenate([np.linspace(-4.0, 4.0, 61), [0.7, math.pi - 0.7]])
    for order in range(4):
        got = sp.evaluate(ts, order)
        assert got.shape == ts.shape
        # reference: fold each point, pick its piece, evaluate it alone
        want = []
        for t in ts:
            tau, sign = dihedral_fold(float(t), 2)
            piece = lo if tau < 0.7 else hi
            want.append(piece.evaluate(tau, order) * sign ** order)
        # each piece takes its points one per row: the bits of a scalar call
        assert np.array_equal(got, want)
        assert sp.evaluate(float(ts[5]), order) == want[5]


def test_sector_profile_json_round_trip():
    sp = SectorProfile(d=2, breaks=(0.7,),
                       pieces=(Profile(2, (0.5,)), Profile(2, (0.5, 1e-3))))
    q = profile_from_json_dict(json.loads(json.dumps(sp.to_json_dict())))
    ts = np.linspace(0, math.pi / 2, 23)
    for t in ts:
        assert q.evaluate(float(t), 0) == sp.evaluate(float(t), 0)
