"""The exact validity rule of `is_minkowski` on every profile kind, against a
dense-grid search with golden-section refinement kept here as the reference."""

import json
import math
import warnings
from unittest import mock

import numpy as np
import numpy.polynomial.chebyshev as chebyshev
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from isonorm import profile as profile_module
from isonorm.cli import main
from isonorm.foliation import cartan3
from isonorm.hessian import InducedNorm
from isonorm.isometry import Sector, bump_profile, glue_construct
from isonorm.planar import DualProfile, theta_legendre
from isonorm.profile import (ALLOWED_D, EPS, VALIDITY_MARGIN, Profile,
                             SectorProfile, gap_from_jet, is_minkowski,
                             save_profile)

# validity bound on |b| for c0 (1 + b cos(d t)): 1, then 2 / (d^2 - 2) from d = 2
B_BOUND = {1: 1.0, 2: 1.0, 3: 2.0 / 7.0, 4: 1.0 / 7.0, 6: 1.0 / 17.0}


def _golden(fun, a, b, iters=48):
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    x1, x2 = b - invphi * (b - a), a + invphi * (b - a)
    f1, f2 = fun(x1), fun(x2)
    for _ in range(iters):
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - invphi * (b - a)
            f1 = fun(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + invphi * (b - a)
            f2 = fun(x2)
    return min(f1, f2)


def reference_validity(p, grid_size=1024):
    """(status, min_f, min_gap): the minima of a 1024-point grid on [0, pi/d],
    each refined by golden-section search around the grid's best point."""
    ts = np.linspace(0.0, math.pi / p.d, grid_size)
    jet = p.jet(ts, 2)
    h = ts[1] - ts[0]

    def refine(values, fun):
        i = int(np.argmin(values))
        lo, hi = max(ts[0], ts[i] - h), min(ts[-1], ts[i] + h)
        return float(min(values[i], _golden(fun, lo, hi)))

    min_f = refine(jet[0], lambda t: p.evaluate(t, 0))
    min_gap = refine(gap_from_jet(*jet), lambda t: gap_from_jet(*p.jet(t, 2)))
    if min_f > VALIDITY_MARGIN and min_gap > VALIDITY_MARGIN:
        return "valid", min_f, min_gap
    if min_f < -VALIDITY_MARGIN or min_gap < -VALIDITY_MARGIN:
        return "invalid", min_f, min_gap
    return "marginal", min_f, min_gap


def _excess_over_reference(p) -> float:
    """How far the exact minima lie above the reference's, relative to
    max(1, |reference|); the statuses must agree."""
    rep = is_minkowski(p)
    status, min_f, min_gap = reference_validity(p)
    assert rep.status == status, (p, rep, min_f, min_gap)
    return max((got - ref) / max(1.0, abs(ref))
               for got, ref in ((rep.min_f, min_f), (rep.min_gap, min_gap)))


def _random_profile(rng) -> Profile:
    d = int(rng.choice(ALLOWED_D))
    terms = int(rng.integers(2, 7))
    coeffs = [1.0] + [float(rng.uniform(-0.6, 0.6)) / j ** 2
                      for j in range(1, terms)]
    return Profile(d, tuple(coeffs))


def test_exact_minima_match_the_reference_on_random_profiles_and_duals():
    rng = np.random.default_rng(20261018)
    worst, statuses, duals = 0.0, set(), 0
    for _ in range(120):
        p = _random_profile(rng)
        worst = max(worst, _excess_over_reference(p))
        statuses.add(is_minkowski(p).status)
        if is_minkowski(p).valid and duals < 40:
            dual = DualProfile(p, scale=float(np.exp(rng.uniform(-1.0, 1.0))))
            worst = max(worst, _excess_over_reference(dual))
            duals += 1
    assert statuses == {"valid", "invalid"} and duals == 40
    assert worst <= 1e-12


@pytest.mark.parametrize("brk", [0.47, 0.52, 0.57])
def test_exact_minima_match_the_reference_on_glued_cartan3_sectors(brk):
    base = bump_profile(3, [(0.24, 0.4), (0.78, 0.36)])
    assert len(base.cos_coeffs) == 96
    h = glue_construct(base, [Sector(0.0, brk, "scale"),
                              Sector(brk, math.pi / 3, "legendre-scale")]).triple.h
    assert isinstance(h, SectorProfile)
    assert _excess_over_reference(h) <= 1e-12


@pytest.mark.parametrize("scale", [1.0, 0.3, 2.5])
def test_dual_gap_is_the_inverse_of_the_base_gap(scale):
    # the dual's Hessian is the inverse of the base's: gap_h(theta(t)) *
    # gap_f(t) = s^2, which is why the dual's gap turns where the base's does
    base = Profile(2, (1.0, 0.15, -0.02, 0.004))
    t = np.linspace(0.0, math.pi / 2, 41)
    theta = theta_legendre(base, t)
    product = (gap_from_jet(*DualProfile(base, scale).jet(theta, 2))
               * gap_from_jet(*base.jet(t, 2)))
    assert np.max(np.abs(product - scale ** 2)) <= 1e-12 * scale ** 2


def test_a_sector_nested_in_a_sector_is_checked_piece_by_piece():
    # the first piece is negative near t = pi but used only on [0, 0.5]
    inner = SectorProfile(1, (0.5,), (Profile(1, (0.5, 0.6)), Profile(1, (0.5,))))
    outer = SectorProfile(1, (1.0,), (inner, Profile(1, (0.5,))))
    assert not is_minkowski(Profile(1, (0.5, 0.6))).valid
    rep = is_minkowski(outer)
    assert rep.status == "valid"
    assert rep.min_f == 0.5 and rep.min_gap == 1.0


@pytest.mark.parametrize("coeffs", [(1.0, 2.2e-311), (1.0, 0.0, 2.2e-311)])
def test_subnormal_trailing_coefficients_validate_quietly(coeffs):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = is_minkowski(Profile(2, coeffs))
    assert rep.status == "valid" and rep.min_gap == 4.0


def test_glue_rejects_an_invalid_base_with_scale_sectors_only():
    base = bump_profile(2, [(0.5, 0.4)], amplitude=0.05)
    with pytest.raises(ValueError, match="profile is not a Minkowski norm profile"):
        glue_construct(base, [Sector(0.0, 1.1, "scale"),
                              Sector(1.1, math.pi / 2, "scale")])


# ----------------------------------------------- one check per profile object

@pytest.fixture
def checks(monkeypatch):
    """Every profile that `is_minkowski`'s candidate search runs on."""
    seen = []
    candidates = profile_module._candidates

    def counted(p, lo, hi):
        seen.append(p)
        return candidates(p, lo, hi)

    monkeypatch.setattr(profile_module, "_candidates", counted)
    return seen


GLUE_BASE_HUMPS = [(0.24, 0.4), (0.78, 0.36)]


@pytest.mark.parametrize("sectors", [
    [Sector(0.0, 0.52, "scale"), Sector(0.52, math.pi / 3, "legendre-scale")],
    [Sector(0.0, 0.52, "scale"), Sector(0.52, math.pi / 3, "scale")],
], ids=["dual-sector", "scale-only"])
def test_a_glue_base_is_checked_once_by_glue_ops_and_lifts(checks, sectors):
    base = bump_profile(3, GLUE_BASE_HUMPS)
    tr = glue_construct(base, sectors).triple
    InducedNorm(cartan3(), tr.f)
    assert [p is base for p in checks] == [True]
    glue_construct(base, sectors)   # a second layout on the same base
    InducedNorm(cartan3(), base)
    assert [p is base for p in checks] == [True]


def test_scaled_exact_duals_check_their_base_once(checks):
    f = Profile(2, (1.0, 0.3))
    DualProfile(f).scaled(2.0).scaled(3.0)
    assert len(checks) == 1 and checks[0] is f


def test_cli_dual_checks_the_base_once_and_the_fit_once(checks, tmp_path, capsys):
    path = tmp_path / "ellipse.json"
    save_profile(Profile(2, (1.0, 0.3)), path)
    assert main(["dual", "--profile", str(path)]) == 0
    fit = json.loads(capsys.readouterr().out)["results"]["cos_coeffs"]
    assert [p.cos_coeffs for p in checks] == [(1.0, 0.3), tuple(fit)]


def test_a_sector_profile_keeps_its_report(checks):
    h = SectorProfile(1, (1.0,), (Profile(1, (1.0, 0.3)), Profile(1, (0.5,))))
    first = is_minkowski(h)
    assert is_minkowski(h) is first
    assert checks[0] is h and len(checks) == 1 + len(h.pieces)


# ------------------------------------------------- the stored report is honest

@given(st.sampled_from((1, 2, 3)), st.floats(0.05, 20.0),
       st.floats(-1.5, 1.5), st.floats(-0.3, 0.3))
@example(1, 1.0, 1.0, 0.0)    # |b| at the validity bound: marginal
@example(2, 0.5, -1.0, 0.0)
@example(3, 2.0, 1.0, 0.0)
@settings(max_examples=60, deadline=None)
def test_a_stored_report_equals_a_fresh_one(d, c0, share, c2):
    # b spans 1.5x the validity bound of c0 (1 + b cos(d t)) on both sides
    coeffs = (c0, c0 * share * B_BOUND[d], c0 * c2 * B_BOUND[d])
    p = Profile(d, coeffs)
    first = is_minkowski(p)
    assert is_minkowski(p) is first
    assert first == is_minkowski(Profile(d, coeffs))
    for k in (-1.0, 1e-12):
        scaled = tuple(k * c for c in coeffs)
        assert is_minkowski(p.scaled(k)) == is_minkowski(Profile(d, scaled))
    if first.valid:
        assert is_minkowski(p.scaled(-1.0)).status == "invalid"
        assert is_minkowski(p.scaled(1e-12)).status == "marginal"
        dual = DualProfile(p, 0.5)
        assert is_minkowski(dual) == is_minkowski(DualProfile(Profile(d, coeffs), 0.5))
        assert is_minkowski(dual.scaled(2.0)) == is_minkowski(DualProfile(p))


def test_stored_stationary_angles_are_read_only():
    p = Profile(2, (1.0, 0.3, 0.05))
    angles = p.stationary_angles()
    assert p.stationary_angles() is angles
    with pytest.raises(ValueError):
        angles[0] = 1.0


# ----------------------------------------- candidate angles over every d

def _unique_candidates(p, lo, hi):
    """`_candidates` as it was written with np.unique: the reference."""
    if isinstance(p, SectorProfile):
        ends = (0.0, *p.breaks, math.pi / p.d)
        return np.hstack([_unique_candidates(piece, max(a, lo), min(b, hi))
                          for piece, a, b in zip(p.pieces, ends, ends[1:])
                          if max(a, lo) < min(b, hi)])
    t = np.unique(np.clip(np.append(p.stationary_angles(), (lo, hi)), lo, hi))
    f0, f1, f2 = p.jet(t, 2)
    return np.array([t, f0, gap_from_jet(f0, f1, f2)])


@given(st.sampled_from(ALLOWED_D), st.floats(0.05, 20.0),
       st.floats(-1.5, 1.5), st.floats(-0.3, 0.3), st.floats(0.05, 0.95),
       st.floats(-0.9999, 0.9999))
@example(6, 1.0, 0.9999, 0.0, 0.5, -0.9999)
@example(4, 2.0, 1.0, 0.0, 0.3, 0.9999)    # at the validity bound: marginal
@example(1, 0.5, -1.0001, 0.0, 0.7, 0.0)
@settings(max_examples=60, deadline=None)
def test_candidates_equal_np_unique_for_every_d(d, c0, share, c2, at, dual_share):
    # b spans 1.5x the validity bound on both sides; the dual's base is valid
    bound = B_BOUND[d]

    def kinds():
        yield Profile(d, (c0, c0 * share * bound, c0 * c2 * bound))
        yield SectorProfile(d, (at * math.pi / d,), (
            Profile(d, (c0, c0 * share * bound)),
            Profile(d, (c0, -c0 * share * bound, c0 * c2 * bound))))
        yield DualProfile(Profile(d, (c0, c0 * dual_share * bound)))

    for p, ref in zip(kinds(), kinds()):   # equal twins, each checked afresh
        got = profile_module._candidates(p, 0.0, math.pi / d)
        want = _unique_candidates(ref, 0.0, math.pi / d)
        assert got.tobytes() == want.tobytes(), p
        with mock.patch.object(profile_module, "_candidates", _unique_candidates):
            want_report = is_minkowski(ref)
        assert repr(is_minkowski(p)) == repr(want_report), p


# ------------------------------- phi's roots only where a long f may vanish

def _long_profile(d, tail, c0_offset, lo, hi):
    """c0 + tail, c0 chosen so that min f on [lo, hi] is about c0_offset."""
    low = _unique_candidates(Profile(d, (0.0, *tail)), lo, hi)[1].min()
    return Profile(d, (c0_offset - low, *tail))


_tails = st.tuples(st.integers(4, 48), st.floats(0.5, 3.0), st.floats(1e-4, 1.0),
                   st.randoms(use_true_random=False)).map(
    lambda a: [a[2] * a[3].uniform(-1.0, 1.0) / j ** a[1] for j in range(1, a[0])])
_offsets = st.one_of(st.floats(1e-3, 2.0), st.floats(-2.0, -1e-3),
                     st.floats(-1e-9, 1e-9))   # valid, invalid, f touching zero


@given(st.sampled_from(ALLOWED_D), _tails, _offsets, _tails, _offsets,
       st.floats(0.05, 0.95))
@example(2, [0.3, 0.05, 0.01], 1e-9, [0.3, 0.05, 0.01], -1e-9, 0.5)
# the gap's minimum, -f'^2, lies at a root of phi
@example(1, [-0.896652121761208, 0.1637975819296052, 0.06949992075928361],
         -0.030289971465515597, [0.0] * 3, 1.0, 0.5)
# phi's roots that the skip leaves out lie on f's minimum on the second piece
@example(1, [0.0] * 3, 1.0, [0.6796875, 0.20094538410672394, 9.61481343191782e-17],
         1.0, 0.5)
@example(1, [0.0] * 3, 1.0, [0.0, 0.0, -1.0 / 3.0, -0.25], 1e-9, 0.5)
@settings(max_examples=120, deadline=None)
def test_skipping_phi_roots_keeps_the_full_candidate_report(d, tail, offset,
                                                            tail2, offset2, at):
    brk = at * math.pi / d

    def kinds():   # a plain long series, and long pieces each shifted on its own piece
        yield _long_profile(d, tail, offset, 0.0, math.pi / d)
        yield SectorProfile(d, (brk,), (_long_profile(d, tail, offset, 0.0, brk),
                                        _long_profile(d, tail2, offset2, brk, math.pi / d)))

    for p, ref in zip(kinds(), kinds()):
        with mock.patch.object(profile_module, "_candidates", _unique_candidates):
            want = is_minkowski(ref)
        got = is_minkowski(p)
        if repr(got) == repr(want):
            continue
        # a complex pair of phi's roots whose real part is a root of phi' sits
        # on f's minimum (phi nearly a quadratic, or f nearly touching zero):
        # there f differs from its value at the phi' root by rounding only
        tol = 4.0 * EPS * max(sum(map(abs, q.cos_coeffs))
                              for q in getattr(p, "pieces", (p,)))
        assert (got.min_gap, got.argmin) == (want.min_gap, want.argmin), p
        assert want.min_f < got.min_f <= want.min_f + tol, p
        assert (got.status == want.status
                or abs(want.min_f - VALIDITY_MARGIN) <= tol), p


@pytest.fixture
def solves(monkeypatch):
    """The length of every series whose roots `chebroots` finds (profile
    imports it from numpy's chebyshev module where it solves)."""
    seen, chebroots = [], chebyshev.chebroots
    monkeypatch.setattr(chebyshev, "chebroots",
                        lambda s: seen.append(len(s)) or chebroots(s))
    return seen


LONG_VALID = (1.0, 0.1, 0.02, 0.005, 0.001)


@pytest.mark.parametrize("d, coeffs, count", [
    (2, LONG_VALID, 2),
    (3, bump_profile(3, GLUE_BASE_HUMPS).cos_coeffs, 2),
    (1, (1.0, 1.0, 0.0, 0.0), 3),            # f = 1 + cos t touches 0 at pi
    (2, (0.2, 0.5, 0.1, 0.05), 3),           # f < 0
], ids=["valid-5-terms", "glue-base", "touching", "negative"])
def test_a_long_series_solves_for_phi_only_where_f_may_vanish(solves, d, coeffs,
                                                              count):
    rep = is_minkowski(Profile(d, coeffs))
    assert len(solves) == count, rep
    assert rep.valid == (count == 2)


def test_an_exact_duals_check_solves_nothing_after_its_bases(solves):
    # a valid base has f > 0, so the dual maps only the phi' and psi' roots
    # that the base's own check found, and never solves for phi's
    base = Profile(3, bump_profile(3, GLUE_BASE_HUMPS).cos_coeffs)
    solves.clear()
    rep = is_minkowski(DualProfile(base))
    assert rep.valid and solves == [95, 95]
    # a sector base has no series of its own: the dual maps all its angles
    sector = SectorProfile(2, (0.7,), (Profile(2, (1.0, 0.15, 0.01)),
                                       Profile(2, (1.0, 0.1))))
    assert len(DualProfile(sector).stationary_angles()) == 6
    assert is_minkowski(DualProfile(sector)).valid


def test_stationary_angles_after_validation_add_the_phi_solve(solves):
    fresh = Profile(2, LONG_VALID).stationary_angles()
    solves.clear()
    p = Profile(2, LONG_VALID)
    is_minkowski(p)
    angles = p.stationary_angles()
    assert solves == [4, 4, 5]   # phi' and psi', then phi
    assert angles.tobytes() == fresh.tobytes()
    assert p.stationary_angles() is angles and len(solves) == 3
