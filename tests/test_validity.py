"""The exact validity rule of `is_minkowski` on every profile kind, against a
dense-grid search with golden-section refinement kept here as the reference."""

import json
import math
import pickle
import random
import warnings
from functools import partial
from unittest import mock

import numpy as np
import numpy.polynomial.chebyshev as chebyshev
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from isonorm import profile as profile_module
from isonorm.cli import main
from isonorm.foliation import cartan3, parse_model
from isonorm.hessian import InducedNorm
from isonorm.isometry import (Sector, ThetaMap, build_h_from_theta,
                              bump_profile, glue_construct)
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


@pytest.fixture
def gates(monkeypatch):
    """Every profile whose sampled validity gate `_gate` is decided."""
    seen, gate = [], profile_module._gate
    monkeypatch.setattr(profile_module, "_gate", lambda p: seen.append(p) or gate(p))
    return seen


@pytest.mark.parametrize("mode", ["legendre-scale", "scale"],
                         ids=["dual-sector", "scale-only"])
def test_a_glue_base_is_checked_once_by_glue_ops_and_lifts(gates, checks, solves,
                                                           mode):
    # a certified base needs no report: one gate decision, and no candidate
    # search or companion solve, over two layouts and the lifts' norms
    base = bump_profile(3, GLUE_BASE_HUMPS)
    layout = lambda brk: [Sector(0.0, brk, "scale"), Sector(brk, math.pi / 3, mode)]
    tr = glue_construct(base, layout(0.52)).triple
    InducedNorm(cartan3(), tr.f)
    assert [p is base for p in gates] == [True]
    glue_construct(base, layout(0.47))   # a second layout on the same base
    InducedNorm(cartan3(), base)
    assert [p is base for p in gates] == [True]
    assert checks == [] and solves == []
    # the kept verdict is no state: a new equal object pickles and hashes alike
    fresh = Profile(3, base.cos_coeffs, base.fit_residual)
    assert (base, hash(base), pickle.dumps(base)) == (fresh, hash(fresh), pickle.dumps(fresh))


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

def _unique_candidates(p, lo, hi, skip_phi=False):
    """`_candidates` as it was written with np.unique: the reference.  With
    skip_phi a `Profile` first reads its ends and the roots of phi' and psi',
    and adds phi's only if f is at most VALIDITY_MARGIN there, as
    `_candidates` does; without it every stationary angle is read."""
    if isinstance(p, SectorProfile):
        ends = (0.0, *p.breaks, math.pi / p.d)
        return np.hstack([_unique_candidates(piece, max(a, lo), min(b, hi), skip_phi)
                          for piece, a, b in zip(p.pieces, ends, ends[1:])
                          if max(a, lo) < min(b, hi)])
    sets = [p.stationary_angles]
    if skip_phi and isinstance(p, Profile):
        sets.insert(0, lambda: np.append(p._root_angles(1), p._root_angles(2)))
    for angles in sets:
        t = np.unique(np.clip(np.append(angles(), (lo, hi)), lo, hi))
        f0, f1, f2 = p.jet(t, 2)
        if np.min(f0) > VALIDITY_MARGIN:
            break
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

    reference = partial(_unique_candidates, skip_phi=True)
    for p, ref in zip(kinds(), kinds()):   # equal twins, each checked afresh
        got = profile_module._candidates(p, 0.0, math.pi / d)
        want = reference(ref, 0.0, math.pi / d)
        assert got.tobytes() == want.tobytes(), p
        with mock.patch.object(profile_module, "_candidates", reference):
            want_report = is_minkowski(ref)
        assert repr(is_minkowski(p)) == repr(want_report), p


# --------------------------------------- a short series' candidates on floats

def _array_root_angles(p, i):
    """`Profile._root_angles` of a short series on arrays, as it was before
    it took numpy's scalar arccos of each root."""
    c = p.cos_coeffs
    if i == 2:
        c = tuple(v * ((j * p.d) ** 2 - 4.0) for j, v in enumerate(c))
    q = profile_module._short_roots(profile_module._short_chebder(c) if i else c)
    return np.arccos(np.clip(np.array(q, dtype=float), -1.0, 1.0)) / p.d


@given(st.sampled_from(ALLOWED_D), st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=3))
@example(1, [0.5])                # one term: the ends alone
@example(1, [0.5, 0.0, 0.5])      # f = cos^2 t vanishes at pi/2: phi's roots are read
@example(4, [2.0, 2.0 / 7.0])     # at the validity bound: marginal
@example(2, [1.0, 1.0, 0.0])      # f = 1 + cos 2t touches 0 at the bound b = 1
@settings(max_examples=150, deadline=None)
def test_short_candidates_on_floats_have_the_array_paths_bits(d, coeffs):
    # a series of at most three terms takes its candidates on floats; the
    # reference takes them on arrays with np.unique, as long series do
    p, ref = Profile(d, coeffs), Profile(d, coeffs)
    got = profile_module._candidates(p, 0.0, math.pi / d)
    reference = partial(_unique_candidates, skip_phi=True)
    with mock.patch.object(Profile, "_root_angles", _array_root_angles):
        assert got.tobytes() == reference(ref, 0.0, math.pi / d).tobytes(), p
        with mock.patch.object(profile_module, "_candidates", reference):
            want = is_minkowski(ref)
    assert repr(is_minkowski(p)) == repr(want), p


@pytest.mark.parametrize("coeffs, solves", [((0.5, 0.0, 0.5), 3), ((1.0, 0.5, 0.1), 2),
                                            ((0.5,), 2)])
def test_short_candidates_solve_for_phi_only_where_f_may_vanish(coeffs, solves):
    roots = mock.Mock(wraps=profile_module._short_roots)
    with mock.patch.object(profile_module, "_short_roots", roots):
        is_minkowski(Profile(1, coeffs))
    assert roots.call_count == solves


@given(st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=64))
@example([-1.0, -0.0, 0.0, 0.5, 1.0])
def test_numpys_scalar_arccos_has_its_array_rows_bits(qs):
    # the float candidates rely on it; math.acos differs in the last bit
    got = np.array([float(np.arccos(q)) for q in qs])
    assert got.tobytes() == np.arccos(np.array(qs)).tobytes()


# ------------------------------------------------------ an overflowing gap

BIG = (1e200, 5e199)  # Profile(2, (1, 0.5)) scaled up


@pytest.mark.parametrize("p", [
    Profile(2, BIG), Profile(1, (1e154,)), Profile(1, (1.0, 0.0, 1e154)),
    Profile(2, BIG + (1e190,) * 3),
    SectorProfile(2, (0.7,), (Profile(2, (1.0, 0.2)), Profile(2, BIG)))],
    ids=["two-term", "constant", "three-term", "five-term", "sector"])
def test_an_overflowing_gap_bound_is_an_error(p):
    # the gap 2 f f'' - f'^2 + 4 f^2 overflowed to a NaN min_gap, "marginal"
    with pytest.raises(ValueError, match=r"gap bound .* overflows"):
        is_minkowski(p)


def test_an_overflowing_profile_is_no_norm_and_has_no_dual():
    for build in (lambda p: InducedNorm(parse_model("d2:4:2"), p), DualProfile):
        with pytest.raises(ValueError, match=r"gap bound .* overflows"):
            build(Profile(2, BIG))


def test_a_large_profile_below_the_overflow_keeps_its_report():
    assert is_minkowski(Profile(1, (1e153,))).min_gap == 4e306
    rep = is_minkowski(Profile(2, (1e150, 5e149)))
    assert rep.status == "valid" and math.isfinite(rep.min_gap)


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
    # a sector base's check reads each piece's ends and phi' and psi' roots
    # on its own interval, here only the ends: the dual maps those 4 angles
    sector = SectorProfile(2, (0.7,), (Profile(2, (1.0, 0.15, 0.01)),
                                       Profile(2, (1.0, 0.1))))
    assert len(DualProfile(sector).stationary_angles()) == 4
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


# ------------------------------- the sampled gate of a long series' validity

LIFT_MODELS = {1: "d1:3", 2: "d2:4:2", 3: "cartan3"}
_NEAR_BOUND = st.sampled_from((1.0, -1.0, 1.0 - 1e-6, 1.0 + 1e-6, -1.0 + 1e-6,
                               -1.0 - 1e-6))


def _assert_the_exact_messages(d, coeffs, rep, sectors=None):
    """`DualProfile`, `InducedNorm` where a model has order d, and, given
    sectors, `glue_construct` on them, each built on a new Profile(d, coeffs),
    accept it or reject it with the message of rep, the exact report of an
    equal profile."""
    numbers = f"min_f={rep.min_f:.3g}, min_gap={rep.min_gap:.3g}"
    norm = (f"profile is not a Minkowski norm profile ({numbers})", rep.status == "invalid")
    builds = [(DualProfile, (f"dual needs a valid profile ({rep.status}: {numbers})",
                             not rep.valid))]
    if d in LIFT_MODELS:
        builds.append((partial(InducedNorm, parse_model(LIFT_MODELS[d])), norm))
    if sectors:
        builds.append((lambda p: glue_construct(p, sectors), norm))
    for build, (message, rejects) in builds:
        if not rejects:
            build(Profile(d, coeffs))
            continue
        with pytest.raises(ValueError) as err:
            build(Profile(d, coeffs))
        assert str(err.value) == message


# b = share * the validity bound of c0 (1 + b cos(d t)), plus a tail of
# n - 2 terms; with the tail at most 1e-9, a share of 1 +- 1e-6 lies within
# 1e-6 of the bound, and a share of +-1 on it (marginal)
@given(st.sampled_from(ALLOWED_D), st.integers(4, 96), st.floats(0.05, 20.0),
       st.one_of(st.floats(-1.5, 1.5), _NEAR_BOUND), st.floats(0.5, 3.0),
       st.sampled_from((0.0, 1e-9, 1e-4, 0.03)), st.randoms(use_true_random=False))
@example(3, 96, 1.0, 1.0 - 1e-6, 1.0, 0.0, random.Random(0))
@example(6, 4, 2.0, -1.0 - 1e-6, 1.0, 1e-9, random.Random(1))
@example(2, 32, 0.5, 0.5, 2.0, 1e-4, random.Random(2))
@settings(max_examples=80, deadline=None)
def test_a_certified_long_series_is_valid(d, n, c0, share, decay, tail, rnd):
    coeffs = (c0, c0 * share * B_BOUND[d],
              *(c0 * tail * rnd.uniform(-1.0, 1.0) / j ** decay for j in range(2, n)))
    # the series, a copy too small to clear the margin and its negative
    for scale in (1.0, 1e-12, -1.0):
        p = Profile(d, coeffs).scaled(scale)
        rep = is_minkowski(Profile(d, p.cos_coeffs))   # an equal, unchecked twin
        if profile_module._certified(p):
            assert rep.status == "valid", (p, rep)
        _assert_the_exact_messages(d, p.cos_coeffs, rep)


@given(st.sampled_from(ALLOWED_D), st.floats(-0.3, 0.3))
@example(2, 0.05)   # the invalid base of the scale-only glue test above
@example(3, 0.0005)
@settings(max_examples=20, deadline=None)
def test_an_invalid_glue_base_gets_the_exact_message(d, amplitude):
    # one hump on [0.1, 0.5] pi/d and a break in the round stretch after it
    base = bump_profile(d, [(0.3 * math.pi / d, 0.4 * math.pi / d)], amplitude)
    rep = is_minkowski(Profile(d, base.cos_coeffs))
    if profile_module._certified(base):
        assert rep.status == "valid", rep
    brk = 0.75 * math.pi / d
    _assert_the_exact_messages(d, base.cos_coeffs, rep, [
        Sector(0.0, brk, "scale"), Sector(brk, math.pi / d, "scale")])


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("share", [-0.95, 0.0, 0.95])
def test_the_gate_certifies_the_solved_linear_h_over_the_lifted_range(d, share):
    # the 32-term h of the linear:1.3:0.8 lift, anchored as the isometry
    # lifts anchor it, takes the gate instead of two companion solves
    f, (a, b), t0 = Profile(d, (1.0, share * B_BOUND[d])), (1.3, 0.8), math.pi / (2 * d)
    h0 = f.evaluate(t0, 0) / (a * a * math.cos(t0) ** 2 + b * b * math.sin(t0) ** 2)
    h = build_h_from_theta(f, ThetaMap(kind="linear", params=(a, b)), t0, h0)
    assert len(h.cos_coeffs) == 32 and profile_module._certified(h)


@pytest.mark.parametrize("d", ALLOWED_D)
def test_a_gap_that_dips_below_zero_between_the_samples_is_not_certified(d):
    # 1 + s (0.3 cos u - 0.2 cos 2u + 0.1 cos 3u), u = d t, just past the
    # largest valid s: its gap dips below zero at u = 0.61-0.72 pi, between
    # the gate's samples, which alone still read a positive gap there
    tail, lo, hi = (0.3, -0.2, 0.1), 0.0, 8.0
    series = lambda s: Profile(d, (1.0, *(s * c for c in tail)))
    for _ in range(60):
        s = 0.5 * (lo + hi)
        lo, hi = (s, hi) if is_minkowski(series(s)).valid else (lo, s)
    p = series(hi * (1.0 + 1e-6))
    assert is_minkowski(Profile(d, p.cos_coeffs)).status == "invalid"
    assert not profile_module._certified(p)


@given(st.lists(st.floats(-0.6, 0.6), min_size=1, max_size=4))
@settings(max_examples=200, deadline=None)
def test_the_chern_shen_criterion_agrees_with_is_minkowski_at_d1(tail):
    # for d = 1, F = r sqrt(2 f(t)) with cos t = x1/r is the (alpha, beta)-norm
    # alpha phi(beta/alpha), b = |beta| = 1, phi(s) = sqrt(2 f(arccos s)); by
    # Chern and Shen (Riemann-Finsler Geometry, 2005, sec. 1.1) it is a norm
    # iff phi > 0 and phi - s phi' + (b^2 - s^2) phi'' > 0 on |s| <= b, a
    # proof that owes nothing to the (t, f, gap) frame.  2 f(arccos s) is the
    # Chebyshev series 2 sum c_j T_j(s).  Profiles whose minima lie within
    # 1e-3 of the bound, relative to their scale, are the marginal band: left out
    p = Profile(1, (1.0, *tail))
    g = chebyshev.Chebyshev(2.0 * np.asarray(p.cos_coeffs))
    s = np.cos(np.linspace(0.0, math.pi, 20001))
    g0, g1, g2 = g(s), g.deriv(1)(s), g.deriv(2)(s)
    band = 1e-3
    assume(abs(g0.min()) > band * g0.max())
    valid = g0.min() > 0
    if valid:
        phi = np.sqrt(g0)
        dphi, ddphi = g1 / (2 * phi), (2 * g0 * g2 - g1 * g1) / (4 * g0 * phi)
        crit = phi - s * dphi + (1.0 - s * s) * ddphi
        assume(abs(crit.min()) > band * phi.max())
        valid = crit.min() > 0
    assert is_minkowski(p).status == ("valid" if valid else "invalid")
