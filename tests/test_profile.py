"""Profile construction, evaluation, validity, and serialization."""

import copy
import json
import math
import pickle
import re
from dataclasses import replace

import numpy as np
import pytest
from numpy.polynomial.chebyshev import chebder, chebroots
from numpy.polynomial.polyutils import trimcoef
from hypothesis import example, given, settings
from hypothesis import strategies as st

from isonorm import profile as profile_module
from isonorm.isometry import bump_profile
from isonorm.planar import DualProfile, PlanarNorm, dual_profile
from isonorm.profile import (ALLOWED_D, CLENSHAW_MAX_TERMS, EPS, Profile,
                             SectorProfile, chop_count,
                             dihedral_fold, from_phi,
                             gap_from_jet,
                             is_minkowski, load_profile, lobatto_fit,
                             profile_from_json_dict, sampled_profile,
                             save_profile)

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


# the mpmath check's profiles: d2 and d3 series, a Randers-type d1 and a
# d2 ellipse near its validity limit
REFERENCE_PROFILES = [Profile(2, (1.0, 0.2, 0.03)), Profile(3, (0.5, 0.02)),
                      Profile(1, (0.5225, 0.3, 0.0225)), Profile(2, (1.0, -0.57))]
# 1- to 4-term series (Clenshaw up to CLENSHAW_MAX_TERMS, the rotation
# table past it), a 32-term fitted dual and the 96-term glue base
SUM_BASES = [Profile(2, (0.5,)), Profile(2, (1.0, 0.2)),
             Profile(2, (1.0, 0.2, 0.03)), Profile(3, (0.5, 0.02, -0.004, 0.001)),
             dual_profile(PlanarNorm(Profile(1, (1.0, 0.5)))),
             bump_profile(3, [(0.24, 0.4), (0.78, 0.36)])]


def _padded(p):
    """p's series with zero coefficients up to one term past
    CLENSHAW_MAX_TERMS, so that the rotation table sums it."""
    return Profile(p.d, p.cos_coeffs
                   + (0.0,) * (CLENSHAW_MAX_TERMS + 1 - len(p.cos_coeffs)))


def _cosine_matrix_jet(p, ts):
    """The jet (f, f', f'', f''') at ts as the long series' kernel summed it
    before the rotation table: f^(m) is the dot product of cos(w t + m pi/2),
    w = j d, with the weights w^m c_j, one per angle."""
    freq = np.arange(len(p.cos_coeffs)) * p.d
    weights = [np.asarray(p.cos_coeffs) * freq.astype(float) ** m for m in range(4)]
    wt = np.multiply.outer(ts.reshape(-1, 1), freq)
    return [(np.cos(wt + phase) @ w).reshape(ts.shape)
            for phase, w in zip((0.5 * math.pi * np.arange(4)).tolist(), weights)]


def _reference_jet(p, ts, mpmath):
    """(f, f', f'', f''') at each t of ts, summed in 40-digit mpmath."""
    with mpmath.workdps(40):
        return [[float(mpmath.fsum(
            mpmath.mpf(c) * (j * p.d) ** m
            * mpmath.cos(j * p.d * mpmath.mpf(t) + m * mpmath.pi / 2)
            for j, c in enumerate(p.cos_coeffs))) for t in ts] for m in range(4)]


@pytest.mark.parametrize("p", REFERENCE_PROFILES, ids=lambda p: str(p.cos_coeffs))
def test_clenshaw_jet_is_no_less_accurate_than_the_cosine_matrix(p):
    mpmath = pytest.importorskip("mpmath")
    ts = np.linspace(0.0, 2.0 * math.pi, 301)
    ref = np.array(_reference_jet(p, ts.tolist(), mpmath))
    scale = np.max(np.abs(ref), axis=1)
    err = lambda jet: np.max(np.abs(np.array(jet) - ref), axis=1) / scale
    assert np.all(err(p.jet(ts, 3)) <= err(_cosine_matrix_jet(_padded(p), ts)))
    assert np.all(err(p.jet(ts, 3)) < 2e-15)


def _rotation_reference(d, c, ts, lengths, mpmath):
    """{n: the jet to order 3 at each t of ts of the series c[:n]} for each
    n of lengths, each value rounded once: z = e^(i d t) from mpmath at 250
    bits, then z^j, cut to 200 bits, and the sums in exact integers."""
    bits = 200
    ratios = [v.as_integer_ratio() for v in c]
    scale = max(den for _, den in ratios)  # a power of 2
    w = [num * (scale // den) for num, den in ratios]
    with mpmath.workprec(250):
        zs = [mpmath.expj(d * mpmath.mpf(t)) for t in ts]
        x = np.array([int(mpmath.ldexp(z.real, bits)) for z in zs], dtype=object)
        y = np.array([int(mpmath.ldexp(z.imag, bits)) for z in zs], dtype=object)
    re = np.full(len(ts), 1 << bits, dtype=object)
    im = np.zeros(len(ts), dtype=object)
    sums = [np.zeros(len(ts), dtype=object) for _ in range(4)]
    out = {}
    for j in range(max(lengths)):
        if j:
            re, im = (re * x - im * y) >> bits, (re * y + im * x) >> bits
        # f^(m) sums (j d)^m c_j times Re z^j, -Im, -Re and Im for m = 0..3
        for m, part in enumerate((re, -im, -re, im)):
            sums[m] = sums[m] + w[j] * (j * d) ** m * part
        if j + 1 in lengths:
            out[j + 1] = np.array([[v / (scale << bits) for v in s.tolist()]
                                   for s in sums])
    return out


@pytest.mark.parametrize("decay", [0.0, 3.0], ids=["flat", "decaying"])
@pytest.mark.parametrize("d", ALLOWED_D)
def test_the_rotation_table_is_no_less_accurate_than_the_cosine_matrix(d, decay):
    # random series c_j ~ N(0, 1) / (1 + j)^decay of 4 to 256 terms against
    # an exact reference, each order's error scaled by sum_j |(j d)^m c_j|
    mpmath = pytest.importorskip("mpmath")
    lengths = (4, 8, 32, 96, 256)
    c = np.random.default_rng(d).normal(size=256) / (1.0 + np.arange(256)) ** decay
    ts = np.linspace(-2.0 * math.pi, 2.0 * math.pi, 301)
    for n, ref in _rotation_reference(d, c.tolist(), ts.tolist(), lengths,
                                      mpmath).items():
        p = Profile(d, tuple(c[:n]))
        w = np.abs(c[:n, None]) * (np.arange(n) * d)[:, None] ** np.arange(4.0)
        err = lambda jet: np.max(np.abs(np.array(jet) - ref), axis=1) / w.sum(axis=0)
        new, old = err(p.jet(ts, 3)), err(_cosine_matrix_jet(p, ts))
        assert new[0] <= old[0] + 2 * EPS, (n, new, old)
        assert np.all(new[1:] <= old[1:]), (n, new, old)
        assert np.all(new < 1e-14), (n, new)


@pytest.mark.parametrize("p", REFERENCE_PROFILES, ids=lambda p: str(p.cos_coeffs))
def test_a_short_series_agrees_with_its_padded_cosine_sum(p):
    ts = np.linspace(-math.pi / p.d, math.pi / p.d, 301)
    assert len(p.cos_coeffs) <= CLENSHAW_MAX_TERMS
    for got, want in zip(p.jet(ts, 3), _padded(p).jet(ts, 3)):
        assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))


def _numpy_series(d, c):
    """The series of (-d)^m phi^(m), m = 0..3, by numpy's `chebder`."""
    e = [tuple(c)]
    for _ in range(3):
        e.append(tuple((-d * chebder(e[-1])).tolist()))
    return e


def _numpy_stationary_angles(d, c):
    """stationary_angles by numpy's `chebder`, `trimcoef` and `chebroots`."""
    c = np.asarray(c)
    freq = np.arange(len(c)) * d
    q = [chebroots(trimcoef(s, EPS * np.max(np.abs(s)))).real
         for s in (c, chebder(c), chebder(c * (freq ** 2 - 4.0)))]
    return np.arccos(np.clip(np.concatenate(q), -1.0, 1.0)) / d


# a last coefficient that is 0, -0.0, subnormal or tiny next to c0
SHORT_TAILS = st.one_of(st.floats(-1e3, 1e3),
                        st.sampled_from([0.0, -0.0, 5e-324, -2.5e-310, 1e-17]))


@given(st.sampled_from(ALLOWED_D),
       st.lists(st.floats(-1e3, 1e3), max_size=CLENSHAW_MAX_TERMS - 1),
       SHORT_TAILS)
@example(1, [1.0, 0.3], 0.0)
@example(2, [1.0, 0.2], 5e-324)
@example(3, [0.5, 0.05], -0.0)
@example(4, [-1.0], 0.1)
@example(6, [], -0.5)
@example(2, [1.0], -0.0)
@example(3, [0.0, 0.0], 0.0)
@settings(max_examples=300, deadline=None)
def test_short_series_steps_are_numpys(d, head, last):
    # the written-out chebder, trimcoef and linear chebroots of a short
    # series give numpy's bits, in the kernel's series and the angles
    c = tuple(head) + (last,)
    hexes = lambda series: [[v.hex() for v in e] for e in series]
    assert hexes(profile_module._short_series(d, c)) == hexes(_numpy_series(d, c))
    got = Profile(d, c).stationary_angles()
    want = _numpy_stationary_angles(d, c)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("kind", ["profile", "sector", "dual"])
@pytest.mark.parametrize("p", SUM_BASES, ids=lambda p: f"{len(p.cos_coeffs)}-term")
def test_every_form_of_an_angle_has_the_same_bits(kind, p):
    # a float, a numpy scalar, a 0-d array, a flat row and a column row
    h = {"profile": p, "dual": DualProfile(p) if kind == "dual" else None,
         "sector": SectorProfile(p.d, (0.4,), (p, Profile(p.d, (0.5,))))}[kind]
    ts = np.concatenate([np.linspace(-4.0, 4.0, 37), [0.0, math.pi / p.d]])
    for k in range(3 if kind == "dual" else 4):
        flat = np.array(h.jet(ts, k))
        assert np.array(h.jet(ts[:, None], k))[..., 0].tobytes() == flat.tobytes()
        for form in (float, np.float64, np.array):
            ones = [h.jet(form(t), k) for t in ts.tolist()]
            assert all(type(v) is float for one in ones for v in one)
            assert np.array(ones).T.tobytes() == flat.tobytes()


@pytest.mark.parametrize("p", SUM_BASES, ids=lambda p: f"{len(p.cos_coeffs)}-term")
def test_a_profile_survives_pickling(p):
    p = replace(p, fit_residual=1e-9)
    q = pickle.loads(pickle.dumps(p))
    assert q == p and q.fit_residual == p.fit_residual
    assert np.array(q.jet(0.7, 3)).tobytes() == np.array(p.jet(0.7, 3)).tobytes()


@pytest.mark.parametrize("p", [SUM_BASES[1], SUM_BASES[-1]],
                         ids=["2-term", "96-term"])
def test_each_copy_binds_its_own_jet_with_the_bits_of_its_parent(p):
    # the jet is bound to each object and is no field: equality and the
    # hash read the series alone, and every way to copy binds a new jet
    bits = lambda q, t: np.array(q.jet(t, 3)).tobytes()
    ts = np.linspace(-4.0, 4.0, 37)
    twin = Profile(p.d, p.cos_coeffs, p.fit_residual)
    copies = {"twin": twin, "replace": replace(p), "scaled": p.scaled(1.0),
              "pickle": pickle.loads(pickle.dumps(p)), "deepcopy": copy.deepcopy(p)}
    for how, q in copies.items():
        assert q == p and hash(q) == hash(p), how
        assert "jet" in vars(q) and q.jet is not p.jet, how
        for t in (ts, 0.7):
            assert bits(q, t) == bits(p, t), how
    # a factor of 2 is exact, so the scaled series' jet is twice the parent's
    assert bits(p.scaled(2.0), ts) == (2.0 * np.array(p.jet(ts, 3))).tobytes()


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


def test_array_of_coefficients_is_accepted():
    # the emptiness check ran on the array itself: "truth value ... ambiguous"
    p = Profile(2, np.array([1.0, 0.2]))
    assert p.cos_coeffs == (1.0, 0.2) and type(p.cos_coeffs[0]) is float
    assert p == Profile(2, (1.0, 0.2))
    for empty in (np.array([]), (), []):
        with pytest.raises(ValueError, match="profile needs at least one coefficient"):
            Profile(2, empty)


# ------------------------------------------------------------------- gap

@given(st.floats(0.05, 0.95), st.floats(-3.0, 3.0))
@settings(max_examples=60)
def test_gap_closed_form_two_term(b, t):
    # for f = a + b cos 2t the criterion quantity is the constant 4(a^2-b^2)
    p = Profile(2, (1.0, b))
    assert gap_from_jet(*p.jet(t, 2)) == pytest.approx(4.0 * (1.0 - b * b),
                                                      abs=1e-10)


def test_gap_round():
    assert gap_from_jet(*Profile(1, (0.5,)).jet(0.3, 2)) == pytest.approx(1.0)


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
    assert rep.min_gap == pytest.approx(
        gap_from_jet(*EXHIBIT.jet(math.pi / 2, 2)), abs=1e-12)
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
        for form in (float, np.float64, np.array):  # each runs on floats
            one = dihedral_fold(form(t), 3)
            assert [type(v) for v in one] == [float, float]
            assert [v.hex() for v in one] == [float(ta).hex(), float(sa).hex()]
    with pytest.raises(ValueError):
        dihedral_fold(np.array([0.1, math.nan]), 3)
    for bad in (math.nan, np.float64(math.inf), np.array(-math.inf)):
        with pytest.raises(ValueError, match="non-finite angle"):
            dihedral_fold(bad, 3)


# ---------------------------------------------------------------- sampled

def test_sampled_profile_recovers_series():
    ts = np.linspace(0, math.pi / 2, 257)
    vals = 1.0 + 0.2 * np.cos(2 * ts)
    p = sampled_profile(2, ts, vals)
    assert p.fit_residual < 1e-10
    assert p.cos_coeffs[0] == pytest.approx(1.0, abs=1e-9)
    assert p.cos_coeffs[1] == pytest.approx(0.2, abs=1e-9)


# ---------------------------------------------------------- the DCT fit

def _lobatto(d, n):
    return np.linspace(0.0, math.pi / d, n + 1)


@pytest.mark.parametrize("d,values", [
    (2, Profile(2, (1.0, 0.2, 0.03)).evaluate(_lobatto(2, 511))),
    (1, DualProfile(Profile(1, (1.0, 0.5))).evaluate(_lobatto(1, 511)))],
    ids=["3-term", "exact-dual-d1"])
def test_lobatto_fit_matches_lstsq_on_converged_series(d, values):
    fit, coeffs = lobatto_fit(d, values)
    want = sampled_profile(d, _lobatto(d, 511), values)
    assert len(fit.cos_coeffs) == len(want.cos_coeffs) == 32 and len(coeffs) == 512
    assert np.max(np.abs(np.array(fit.cos_coeffs) - want.cos_coeffs)) <= 4 * EPS
    assert fit.fit_residual <= 4 * EPS and want.fit_residual < 1e-14
    assert fit.cos_coeffs == tuple(coeffs[:32])


@pytest.mark.parametrize("d,n", [(1, 64), (2, 200), (3, 511), (6, 33)])
def test_lobatto_fit_with_all_terms_reproduces_its_nodes(d, n):
    values = np.random.default_rng(n).uniform(0.5, 1.5, n + 1)
    fit, coeffs = lobatto_fit(d, values)
    assert len(fit.cos_coeffs) == min(32, (n + 1) // 2) and len(coeffs) == n + 1
    err = np.max(np.abs(Profile(d, coeffs).evaluate(_lobatto(d, n)) - values))
    assert err <= (n + 1) * EPS * np.max(values)
    # the truncated series' residual is its error at those nodes
    err = np.max(np.abs(fit.evaluate(_lobatto(d, n)) - values))
    assert fit.fit_residual == pytest.approx(err, rel=1e-10)


def test_chop_count_reads_the_length_of_a_resolved_series():
    values = Profile(2, (1.0, 0.2, 0.03)).evaluate(_lobatto(2, 511))
    assert chop_count(lobatto_fit(2, values)[1]) == 3
    # shorter than 17 coefficients: all of them; no nonzero one: one
    assert chop_count([1.0, 0.5]) == 2 and chop_count(np.zeros(40)) == 1
    assert chop_count(np.ones(40)) == 40  # no plateau: unresolved


def test_scaled_profile():
    q = ELLIPSE.scaled(0.25)
    assert q.evaluate(0.3, 0) == pytest.approx(0.25 * ELLIPSE.evaluate(0.3, 0))
    assert gap_from_jet(*q.jet(0.3, 2)) == pytest.approx(
        0.0625 * gap_from_jet(*ELLIPSE.jet(0.3, 2)))


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


def test_json_stores_the_fit_not_the_samples():
    ts = np.linspace(0, math.pi, 301)
    p = sampled_profile(1, ts, 0.5 + 0.01 * np.cos(2 * ts) + 1e-6 * np.abs(ts - 1.0))
    assert p.to_json_dict() == {"d": 1, "kind": "cosine",
                                "cos_coeffs": list(p.cos_coeffs),
                                "fit_residual": p.fit_residual}
    assert p.fit_residual > 0 and profile_from_json_dict(p.to_json_dict()) == p
    # an exact profile writes no residual: its bytes are as before
    assert ELLIPSE.to_json_dict() == {"d": 2, "kind": "cosine",
                                      "cos_coeffs": [1.0, 0.2]}


@pytest.mark.parametrize("stored", [None, 0.0, 1e-3])
def test_json_old_sampled_format_still_loads(stored):
    # the older format kept the samples; the loader refits them, as before,
    # and keeps a stored residual that is larger than the refit's
    ts = np.linspace(0, math.pi / 2, 65)
    vals = 1.0 + 0.2 * np.cos(2 * ts) + 0.01 * np.cos(6 * ts) ** 3 + 1e-7 * ts
    data = {"d": 2, "kind": "sampled", "grid": ts.tolist(), "values": vals.tolist()}
    if stored is not None:
        data["fit_residual"] = stored
    fit = sampled_profile(2, ts, vals)
    q = profile_from_json_dict(data)
    assert q.cos_coeffs == fit.cos_coeffs and len(fit.cos_coeffs) == 32
    assert q.fit_residual == max(stored or 0.0, fit.fit_residual) and fit.fit_residual > 0
    with pytest.raises(ValueError, match="fit_residual"):
        profile_from_json_dict(dict(data, fit_residual=-1.0))


def test_json_round_trip_of_every_kind():
    ts = np.linspace(0, math.pi / 2, 65)
    fitted = sampled_profile(2, ts, 1.0 + 0.2 * np.cos(2 * ts) + 1e-6 * ts)
    assert fitted.fit_residual > 0
    sector = SectorProfile(2, (0.7,), (fitted, ELLIPSE.scaled(3.0)))
    for p in (ELLIPSE, fitted, fitted.scaled(-0.5), sector,
              DualProfile(fitted, 2.0), DualProfile(ELLIPSE)):
        assert profile_from_json_dict(json.loads(json.dumps(p.to_json_dict()))) == p


@pytest.mark.parametrize("coeffs,residual", [
    ((math.nan,), 0.0), ((1.0, math.inf), 0.0), ((1.0, -math.inf), 0.0),
    ((1.0,), -1e-9), ((1.0,), math.nan), ((1.0,), math.inf)])
def test_non_finite_profile_is_rejected(coeffs, residual):
    with pytest.raises(ValueError, match="finite"):
        Profile(2, coeffs, fit_residual=residual)
    data = {"d": 2, "cos_coeffs": list(coeffs), "fit_residual": residual}
    with pytest.raises(ValueError, match="finite"):
        profile_from_json_dict(json.loads(json.dumps(data)))


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


@pytest.mark.parametrize("breaks,named", [
    ((5.0,), "break 0 is 5.0"),
    ((math.nan,), "break 0 is nan"),
    ((math.inf,), "break 0 is inf"),
    ((0.0,), "break 0 is 0.0"),
    ((math.pi / 2,), "break 0 is 1.5707963267948966"),
    ((-0.3,), "break 0 is -0.3"),
    ((0.9, 0.5), "break 1 is 0.5"),
    ((0.7, 0.7), "break 1 is 0.7"),
    ((0.5, math.nan), "break 1 is nan"),
], ids=["past-the-end", "nan", "inf", "zero", "pi-over-d", "negative",
        "decreasing", "repeated", "second-nan"])
def test_sector_profile_break_out_of_place_is_named(breaks, named):
    # a break past pi/d hid the pieces after it from is_minkowski, and a NaN
    # one ended in numpy's "need at least one array to concatenate"
    pieces = (Profile(2, (0.5,)),) * (len(breaks) + 1)
    with pytest.raises(ValueError, match=re.escape(
            f"sector profile {named}: breaks must be finite, strictly "
            f"increasing and inside (0, pi/2)")):
        SectorProfile(2, breaks, pieces)


@pytest.mark.parametrize("pieces,message", [
    ((Profile(2, (0.5,)),), "need exactly len(breaks)+1 pieces"),
    ((Profile(2, (0.5,)),) * 3, "need exactly len(breaks)+1 pieces"),
    ((Profile(2, (0.5,)), Profile(4, (0.5,))), "piece symmetry order mismatch"),
], ids=["one-piece", "three-pieces", "piece-d"])
def test_sector_profile_pieces_error_is_named(pieces, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        SectorProfile(2, (0.7,), pieces)


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
        assert np.array_equal(got, want)
        assert sp.evaluate(float(ts[5]), order) == want[5]


def test_sector_profile_json_round_trip():
    sp = SectorProfile(d=2, breaks=(0.7,),
                       pieces=(Profile(2, (0.5,)), Profile(2, (0.5, 1e-3))))
    q = profile_from_json_dict(json.loads(json.dumps(sp.to_json_dict())))
    ts = np.linspace(0, math.pi / 2, 23)
    for t in ts:
        assert q.evaluate(float(t), 0) == sp.evaluate(float(t), 0)
