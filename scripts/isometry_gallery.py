#!/usr/bin/env python3
"""Build the catalogue of Hessian-isometry triples and print their residuals.

Each row is a triple (f, h, theta): source profile, target profile, and the
leaf-angle map.  Three numbers are reported per row:

  ode_max    largest residual of the d+1 isometry equations on an interior
             grid (the planar certificate),
  lift_res   metric residual of the lifted map on R^n against the two
             fundamental tensors, with the lift's exact differential (the
             n-dimensional certificate),
  d_res      largest decomposition-property residual over the d dihedral
             angles -k pi/d.

The identity and Legendre rows use exact target profiles; the linear and
scaled-Legendre rows integrate the target out of the ODE itself
(build_h_from_theta), so they double as a solver smoke test.  Exact
isometries land at rounding, the solved ones at their fit's defect; the
deliberately broken row at the bottom shows what failure looks like.

Usage:
    python3 scripts/isometry_gallery.py
    python3 scripts/isometry_gallery.py --d 2 --samples 30 --seed 3
"""

import argparse
import math

import numpy as np

from isonorm.foliation import cartan3, d1, d2
from isonorm.hessian import InducedNorm
from isonorm.isometry import (Decomposition, IsometryTriple, Sector, ThetaMap,
                              build_h_from_theta, bump_profile,
                              check_d_property, check_hessian_isometry,
                              classify_sectors, glue_construct, identity_map,
                              legendre_map_tag, lift_to_nd, ode_residuals,
                              planar_lift_map)
from isonorm.planar import DualProfile, PlanarNorm
from isonorm.profile import Profile

MODELS = {1: d1(3), 2: d2(4, 2), 3: cartan3()}
BASE = {
    1: Profile(1, (0.55, 0.04, 0.01)),
    2: Profile(2, (1.0, 0.15, 0.01)),
    3: Profile(3, (0.5, 0.02, 0.005)),
}


def triple_row(label, tr, model, samples, seed):
    ts = np.linspace(0.0, math.pi / tr.f.d, 258)[1:-1]
    ode_max = float(np.max(np.abs(ode_residuals(tr, ts))))

    nm_f = InducedNorm(model, tr.f)
    nm_h = InducedNorm(model, tr.h)
    chk = check_hessian_isometry(nm_f, nm_h, lift_to_nd(tr, model),
                                 samples=samples, seed=seed)

    pf, ph = PlanarNorm(tr.f), PlanarNorm(tr.h)
    phi2 = planar_lift_map(tr)
    splits = (-k * math.pi / tr.f.d for k in range(tr.f.d))
    d_res = max(check_d_property(pf, ph, phi2,
                                 Decomposition(vprime=(math.cos(a), math.sin(a))),
                                 samples=10).max_residual
                for a in splits)
    print(f"{label:<34} {ode_max:>9.2e} {chk.max_metric_residual:>9.2e} "
          f"{d_res:>9.2e}")


def solver_triple(f, theta, h0_at):
    """Integrate h out of the k=0 equation, anchored at t0 = pi/(2d)."""
    t0 = math.pi / (2 * f.d)
    return IsometryTriple(f=f, h=build_h_from_theta(f, theta, t0, h0_at(t0)),
                          theta=theta)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--d", type=int, choices=(1, 2, 3), default=None,
                    help="restrict to one symmetry order")
    ap.add_argument("--samples", type=int, default=15,
                    help="points per lifted metric check (default 15)")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    orders = (args.d,) if args.d else (1, 2, 3)
    for d in orders:
        model, f = MODELS[d], BASE[d]
        print(f"\n== d = {d}  on {model.describe()} ==")
        print(f"{'triple':<34} {'ode_max':>9} {'lift_res':>9} {'d_res':>9}")

        triple_row("identity   (f, f, t)",
                   IsometryTriple(f=f, h=f, theta=identity_map()),
                   model, args.samples, args.seed)
        triple_row("legendre   (f, exact dual)",
                   IsometryTriple(f=f, h=DualProfile(f),
                                  theta=legendre_map_tag()),
                   model, args.samples, args.seed)

        if d in (1, 2):
            # Linear block maps fix the sector ends only for d = 1, 2; on
            # cartan3 the plane map does not extend to a linear map of R^5.
            a, b = 1.3, 0.8
            lin = ThetaMap(kind="linear", params=(a, b))
            # anchor = true pullback: h(theta(t0)) = f(t0) / |diag(a,b) u|^2
            rho2 = lambda t: a * a * math.cos(t) ** 2 + b * b * math.sin(t) ** 2
            triple_row(f"linear     diag({a}, {b}), solved h",
                       solver_triple(f, lin,
                                     lambda t: f.evaluate(t, 0) / rho2(t)),
                       model, args.samples, args.seed)

            sl = ThetaMap(kind="scaled-legendre", params=(a, b))
            dual_anchor = lambda t: f.evaluate(t, 0) / (
                (4 * f.evaluate(t, 0) ** 2 + f.evaluate(t, 1) ** 2) * a * b)
            triple_row(f"scaled leg ({a}, {b}), solved h",
                       solver_triple(f, sl, dual_anchor),
                       model, args.samples, args.seed)

        # Control: same theta, wrong target profile.
        bad = Profile(d, tuple(c * (1.15 if i else 1.0)
                               for i, c in enumerate(f.cos_coeffs)))
        triple_row("BROKEN     (f, wrong h, t)",
                   IsometryTriple(f=f, h=bad, theta=identity_map()),
                   model, args.samples, args.seed)

    if args.d in (None, 3):
        glued_demo(samples=args.samples, seed=args.seed)


def glued_demo(samples, seed):
    print("\n== glued sectors on cartan3 ==")
    base = bump_profile(3, humps=[(0.24, 0.4), (0.78, 0.36)])
    res = glue_construct(base, [Sector(0.0, 0.52, "scale"),
                                Sector(0.52, math.pi / 3, "legendre-scale")],
                         band_width=0.02)
    tr = res.triple
    print(f"band residual {res.max_band_residual:.2e}; sector labels:",
          [f"{s.label}[{s.lo:.2f},{s.hi:.2f}]" for s in classify_sectors(tr)])
    model = cartan3()
    chk = check_hessian_isometry(InducedNorm(model, tr.f),
                                 InducedNorm(model, tr.h),
                                 lift_to_nd(tr, model),
                                 samples=samples, seed=seed)
    print(f"lifted metric residual {chk.max_metric_residual:.2e}")


if __name__ == "__main__":
    main()
