#!/usr/bin/env python3
"""Sweep profile families and tabulate where the Hessian metric is flat.

For each foliation model we walk one-parameter families of profiles, take
the Riemann tensor with `riemann_fd` (exact G and T = dG) at four interior
leaf points, and print the largest component, its largest ratio to
`riemann_fd`'s rounding floor, and the verdict: flat when `riemann_fd`
calls every point flat (max |R| at or below the floor); a flat row's R is
rounding, ~1e-32.  By the paper's Laugwitz theorem the flat
rows are exactly the quadratic energies: f affine in cos 2t for d=1 and
d=2, and only the round profile for d=3.  The near-round rays put one term
1e-6 to 1e-2 off round on d1:3 and cartan3; their R lies far below a fixed
bound of order 1e-3 but far above rounding, so a fixed bound would call
these curved norms flat.

Usage:
    python3 scripts/curvature_sweep.py                 # default sweep
    python3 scripts/curvature_sweep.py --model d1:3 --steps 9
"""

import argparse
import math

import numpy as np

from isonorm.foliation import cartan3, d1, d2, parse_model, random_leaf_points
from isonorm.hessian import InducedNorm, riemann_fd
from isonorm.profile import Profile, is_minkowski


def sweep_model(model, family, seed, t_samples=(0.45, 0.8)):
    print(f"\n== {model.describe()}  (n={model.n}, d={model.d}) ==")
    print(f"{'profile':<38} {'min_gap':>9} {'max |R|':>10} {'R/floor':>9}  verdict")
    ts = [min(t, math.pi / model.d - 0.3) for t in t_samples]
    points = np.concatenate([random_leaf_points(model, t, 2, seed=seed + i)
                             for i, t in enumerate(ts)])
    for label, profile in family:
        rep = is_minkowski(profile)
        if not rep.valid:
            print(f"{label:<38} {rep.min_gap:>9.3g} {'-':>10} {'-':>9}  not a norm")
            continue
        res = riemann_fd(InducedNorm(model, profile), points)
        ratio = np.max(res.max_abs_component / res.noise_floor)
        verdict = "flat" if res.flat.all() else "curved"
        print(f"{label:<38} {rep.min_gap:>9.3g} "
              f"{res.max_abs_component.max():>10.2e} {ratio:>9.2e}  {verdict}")


def near_round(d, steps):
    # one term 1e-6 to 1e-2 off round: weakly curved, never quadratic
    wave = "cos t" if d == 1 else f"cos{d}t"
    return [(f"near-round  f = 0.5 + {s:.0e} {wave}", Profile(d, (0.5, float(s))))
            for s in np.logspace(-6.0, -2.0, steps)]


def family_d1(steps):
    # round -> ellipse ray (all quadratic energies, so all flat), a Randers
    # ray (flat only at beta = 0) and the near-round ray.
    fam = []
    for s in np.linspace(0.0, 0.35, steps):
        fam.append((f"ellipse  f = 0.5 + {s:.3f} cos2t",
                    Profile(1, (0.5, 0.0, float(s) / 2))))
    for b in np.linspace(0.0, 0.6, steps):
        a2, b_ = 1.0, float(b)
        fam.append((f"randers  alpha + {b_:.3f} x1",
                    Profile(1, ((a2 + b_ * b_ / 2) / 2, b_, b_ * b_ / 4))))
    return fam + near_round(1, steps)


def family_d2(steps):
    fam = []
    for s in np.linspace(0.0, 0.4, steps):
        fam.append((f"clifford ellipse  c1 = {s:.3f}",
                    Profile(2, (1.0, float(s)))))
    for s in np.linspace(0.0, 0.06, steps):
        fam.append((f"second harmonic   c2 = {s:.3f}",
                    Profile(2, (1.0, 0.15, float(s)))))
    return fam


def family_d3(steps):
    fam = [("round", Profile(3, (0.5,)))]
    for s in np.linspace(0.01, 0.05, steps - 1):
        fam.append((f"wobble  c1 = {s:.3f}", Profile(3, (0.5, float(s)))))
    return fam + near_round(3, steps)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--model", default=None,
                    help="restrict to one model (d1:n | d2:n:k | cartan3)")
    ap.add_argument("--steps", type=int, default=5,
                    help="points per family ray (default 5)")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    sweeps = [
        (d1(3), family_d1(args.steps)),
        (d2(4, 2), family_d2(args.steps)),
        (cartan3(), family_d3(args.steps)),
    ]
    if args.model is not None:
        wanted = parse_model(args.model)
        sweeps = [(m, fam) for m, fam in sweeps if m.describe() == wanted.describe()]
        if not sweeps:
            raise SystemExit(f"no sweep family for model {args.model}")

    for model, family in sweeps:
        sweep_model(model, family, args.seed)
    print("\nverdict: flat iff riemann_fd calls every point flat, i.e. each max |R|"
          "\nis at or below its rounding floor (R/floor <= 1); the quadratic rows"
          "\nread R/floor below 1e-2, the curved ones above 1e3")


if __name__ == "__main__":
    main()
