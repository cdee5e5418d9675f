"""The exact validity rule of `is_minkowski` on every profile kind, against a
dense-grid search with golden-section refinement kept here as the reference."""

import math
import warnings

import numpy as np
import pytest

from isonorm.isometry import Sector, bump_profile, glue_construct
from isonorm.planar import DualProfile, PlanarNorm, theta_legendre
from isonorm.profile import (VALIDITY_MARGIN, Profile, SectorProfile,
                             convexity_gap, gap_from_jet, is_minkowski,
                             round_profile)


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
    min_gap = refine(gap_from_jet(*jet), lambda t: convexity_gap(p, t))
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
    d = int(rng.integers(1, 4))
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
    theta = theta_legendre(PlanarNorm(base), t)
    product = convexity_gap(DualProfile(base, scale), theta) * convexity_gap(base, t)
    assert np.max(np.abs(product - scale ** 2)) <= 1e-12 * scale ** 2


def test_a_sector_nested_in_a_sector_is_checked_piece_by_piece():
    # the first piece is negative near t = pi but used only on [0, 0.5]
    inner = SectorProfile(1, (0.5,), (Profile(1, (0.5, 0.6)), round_profile(1)))
    outer = SectorProfile(1, (1.0,), (inner, round_profile(1)))
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
