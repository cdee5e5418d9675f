#!/usr/bin/env python3
"""Recompute every frozen constant used in the test suite from independent
elementary constructions (quadratic forms, first-principles symbolic geometry,
classical closed forms). This script deliberately does NOT import the package:
the numbers it prints were copied into the tests as frozen oracle values, and
rerunning it is the audit trail for where they came from.
"""

import numpy as np
import sympy as sp


def banner(title):
    print()
    print("##", title)


# ---------------------------------------------------------------------------
banner("ellipse profile f(t) = 1 + 0.2 cos 2t  (quadratic-form oracle)")
# 2E = 2 r^2 f = 2(x1^2+x2^2) + 0.4(x1^2 - x2^2) = 2.4 x1^2 + 1.6 x2^2
A = np.diag([2.4, 1.6])
print("value(1,0) = sqrt(2.4) =", np.sqrt(2.4))
print("tensor at any x = diag(2.4, 1.6)")
print("legendre_map(0.5,0.5) = A @ x =", A @ np.array([0.5, 0.5]))
print("theta_legendre(pi/4) = atan2(0.8, 1.2) =", np.arctan2(0.8, 1.2))
# dual quadratic: Ehat = y1^2/(2*2.4) + y2^2/(2*1.6); h(θ) = Ehat on unit circle
c0 = (1 / 4.8 + 1 / 3.2) / 2
c1 = (1 / 4.8 - 1 / 3.2) / 2
print("dual profile coeffs: c0 =", c0, " c1 =", c1)

banner("ellipse dual: f = a + b cos 2t has h(theta) = (a - b cos 2theta)/(4(a^2 - b^2))")
# E = r^2 f = (a+b) x1^2 + (a-b) x2^2, so Ehat = y1^2/(4(a+b)) + y2^2/(4(a-b))
a, b, th = sp.symbols("a b theta")
h = (sp.cos(th) ** 2 / (a + b) + sp.sin(th) ** 2 / (a - b)) / 4
print("h - closed form =",
      sp.simplify(h - (a - b * sp.cos(2 * th)) / (4 * (a * a - b * b))))
for bv in (0.95, -0.95):
    print(f"  (a,b)=(1,{bv}) -> c0 = 1/0.39 = {1 / 0.39!r}, "
          f"c1 = -b/0.39 = {-bv / 0.39!r}")

banner("convexity gap of a + b cos 2t is the constant 4(a^2 - b^2)")
a, b, t = sp.symbols("a b t")
f = a + b * sp.cos(2 * t)
gap = sp.simplify(2 * f * f.diff(t, 2) - f.diff(t) ** 2 + 4 * f**2)
print("gap =", gap)
for av, bv in [(1, 0.2), (1, 0.5), (1, 0.99), (1, 1.1)]:
    print(f"  (a,b)=({av},{bv}) -> {4*(av**2-bv**2):.6f}")

banner("exhibit f = 1 - 0.01 cos 2t + 4.837e-4 cos 64t: gap at t = pi/2, exact")
# a dip narrower than a 1024-point grid's spacing; f' = 0 at pi/2, so there
# gap = 2 f (f'' + 2 f), in exact rationals
tx = sp.symbols("t")
f_ex = 1 - sp.Rational(1, 100) * sp.cos(2 * tx) + sp.Rational(4837, 10**7) * sp.cos(64 * tx)
f0x, f1x, f2x = (f_ex.diff(tx, k).subs(tx, sp.pi / 2) for k in range(3))
gap_ex = 2 * f0x * (f2x + 2 * f0x)
print("f =", f0x, " f' =", f1x, " f'' =", f2x)
print("gap(pi/2) =", gap_ex, "=", float(gap_ex))

banner("exact dual h(theta(t)) = s f / (4 f^2 + f'^2): its gap is s^2 / gap_f")
# theta' = gap_f / (N^2 + D^2) with N^2 + D^2 = 4 f^2 + f'^2; d/dt acts on the
# jet symbols by f_k -> f_(k+1)
sj, *fj = sp.symbols("s f0 f1 f2 f3")
ddt = lambda e: sum(e.diff(fj[k]) * fj[k + 1] for k in range(3))
G = 4 * fj[0] ** 2 + fj[1] ** 2
gap_f = 2 * fj[0] * fj[2] - fj[1] ** 2 + 4 * fj[0] ** 2
h0 = sj * fj[0] / G
h1 = ddt(h0) * G / gap_f
h2 = ddt(h1) * G / gap_f
gap_h = 2 * h0 * h2 - h1 ** 2 + 4 * h0 ** 2
print("(h o theta)' + s f' gap_f / G^2 =", sp.simplify(ddt(h0) + sj * fj[1] * gap_f / G ** 2))
print("gap_h * gap_f - s^2 =", sp.simplify(gap_h * gap_f - sj ** 2))
print("ellipse base 1 + b cos 2t: min_gap = s^2/(4(1 - b^2)), min h = s/(4(1 + |b|))")

banner("scaled Legendre angle of the round norm, (a,b)=(1,2), t=pi/4")
# map is x -> (a*x1, 2f*b*x2) with f=1/2 -> (x1, 2 x2); angle = atan2(2 sin, cos)
print("theta =", np.arctan2(2 * np.sin(np.pi / 4), np.cos(np.pi / 4)), "= arctan 2 =", np.arctan(2.0))

banner("reduction quadratic A,B,C for (f,t,theta)")
ft, tt, th = sp.symbols("f t theta", positive=True)
fsym = sp.Function("f")(tt)
Aq = sp.cos(tt) * sp.sin(tt) * (sp.cos(tt) * fsym.diff(tt) + 2 * sp.sin(tt) * fsym) * (
    sp.sin(tt) * fsym.diff(tt) - 2 * sp.cos(tt) * fsym
) / (2 * fsym**2 * sp.cos(th) ** 2 * sp.sin(th) ** 2)
Bq = (
    sp.cos(tt) * sp.sin(tt) * fsym.diff(tt, 2) / fsym
    - sp.cos(tt) * sp.sin(tt) * fsym.diff(tt) ** 2 / fsym**2
    + (sp.cos(tt) ** 2 - sp.sin(tt) ** 2) * fsym.diff(tt) / fsym
    + 4 * sp.cos(tt) * sp.sin(tt)
) / (sp.cos(th) * sp.sin(th))
Cq = -fsym.diff(tt, 2) / fsym + fsym.diff(tt) ** 2 / (2 * fsym**2) - 2
r1 = sp.cos(th) * sp.sin(th) / (sp.cos(tt) * sp.sin(tt))
r2 = (-2 * fsym * fsym.diff(tt, 2) + fsym.diff(tt) ** 2 - 4 * fsym**2) * sp.cos(th) * sp.sin(th) / (
    (sp.cos(tt) * fsym.diff(tt) + 2 * sp.sin(tt) * fsym) * (sp.sin(tt) * fsym.diff(tt) - 2 * sp.cos(tt) * fsym)
)
print("A r1^2 + B r1 + C simplifies to:", sp.simplify(Aq * r1**2 + Bq * r1 + Cq))
print("A r2^2 + B r2 + C simplifies to:", sp.simplify(Aq * r2**2 + Bq * r2 + Cq))
subs_round = {fsym: sp.Rational(1, 2)}
Ar = Aq.subs(fsym, sp.Rational(1, 2)).doit()
# substitute f = 1/2 correctly: replace the Function by a constant
half = sp.Rational(1, 2)
fr = sp.Function("f")
expr_subs = lambda e: e.subs(fsym.diff(tt, 2), 0).subs(fsym.diff(tt), 0).subs(fsym, half)
print("round f=1/2, theta=t:  A =", sp.simplify(expr_subs(Aq).subs(th, tt)),
      " B =", sp.simplify(expr_subs(Bq).subs(th, tt)),
      " C =", sp.simplify(expr_subs(Cq)))
Athv = sp.simplify(expr_subs(Aq))
print("round f=1/2, t=pi/4, theta=atan2: roots both = cos th sin th/(cos t sin t) =",
      float((sp.cos(th) * sp.sin(th) / (sp.cos(tt) * sp.sin(tt))).subs({th: sp.atan(2), tt: sp.pi / 4})))

banner("branch-One closed form through (t0,theta0)=(pi/4, arctan 2)")
c = np.tan(np.arctan(2.0)) / np.tan(np.pi / 4)  # = 2
print("theta(pi/3) = atan(2 tan pi/3) =", np.arctan(2 * np.tan(np.pi / 3)))

banner("indicatrix |grad t|^2 for f = 1 + 0.2 cos 2t at t = pi/4")
fv, fpv, fppv = 1.0, -0.4, 0.0
print("4f^2/(4f^2 - f'^2 + 2 f f'') =", 4 * fv**2 / (4 * fv**2 - fpv**2 + 2 * fv * fppv))

banner("Randers profile 1/2 (1 + 0.3 cos t)^2 as cosine series (d=1)")
s = sp.symbols("s")
expr = sp.expand_trig(sp.expand((1 + sp.Rational(3, 10) * sp.cos(tt)) ** 2 / 2))
expr = sp.simplify(sp.expand(expr.rewrite(sp.cos)))
print("series:", sp.nsimplify(expr))
# manual: 1/2 (1 + 0.6 cos t + 0.09 cos^2 t) = 0.5 + 0.0225 + 0.3 cos t + 0.0225 cos 2t
print("coeffs: c0 = 0.5225, c1 = 0.3, c2 = 0.0225")

banner("from_phi examples")
print("alpha-beta phi(s)=1+0.3s, b=1: f(0) = 0.5*phi(1)^2 =", 0.5 * 1.3**2)
print("alpha1-alpha2 phi(s)=1+0.3s:   f(0) = 0.5*1.69 = 0.845, f(pi/2) = 0.5*phi(0)^2 = 0.5")

# ---------------------------------------------------------------------------
banner("first-principles indicatrix Laplacian of t, model d=1 n=3")
r = sp.symbols("r", positive=True)
ph = sp.symbols("phi")
fg = sp.Function("f", positive=True)(tt)
X = sp.Matrix([r * sp.cos(tt), r * sp.sin(tt) * sp.cos(ph), r * sp.sin(tt) * sp.sin(ph)])
q = sp.Matrix([r, tt, ph])
E = r**2 * fg


def hessian_metric(E, X, q):
    J = X.jacobian(q)
    g0 = sp.simplify(J.T * J)
    n = len(q)
    g0i = g0.inv()
    dE = [sp.diff(E, v) for v in q]
    Gam0 = [[[sp.simplify(sum(g0i[k, l] * (sp.diff(g0[i, l], q[j]) + sp.diff(g0[j, l], q[i]) - sp.diff(g0[i, j], q[l])) for l in range(n)) / 2) for j in range(n)] for i in range(n)] for k in range(n)]
    g = sp.zeros(n, n)
    for i in range(n):
        for j in range(n):
            g[i, j] = sp.simplify(sp.diff(E, q[i], q[j]) - sum(Gam0[k][i][j] * dE[k] for k in range(n)))
    return g


def laplacian_t(g, q, tindex=1):
    detg = sp.simplify(g.det())
    gi = g.inv()
    lap = sum(sp.diff(sp.sqrt(detg) * gi[i, tindex], q[i]) for i in range(len(q)))
    return sp.simplify(lap / sp.sqrt(detg))


g3 = hessian_metric(E, X, q)
lap3 = laplacian_t(g3, q)
lap3_ind = sp.simplify(lap3 * r**2 * 2 * fg)  # restrict: r^-2 = 2f
print("Delta_S t (d=1,n=3) =", sp.simplify(lap3_ind))
f_ell_expr = 1 + sp.Rational(1, 5) * sp.cos(2 * tt)
val = lap3_ind.subs(fg, f_ell_expr).doit().subs(tt, sp.pi / 4)
print("  for f = 1+0.2cos2t at t=pi/4:", sp.nsimplify(sp.simplify(val)), "=", float(val))
val2 = lap3_ind.subs(fg, sp.Rational(1, 2)).doit().subs(tt, sp.pi / 4)
print("  for f = 1/2 at t=pi/4:", float(val2), " (cot pi/4 = 1)")
val3 = lap3_ind.subs(fg, sp.Rational(1, 2)).doit().subs(tt, sp.pi / 3)
print("  for f = 1/2 at t=pi/3:", float(val3), " (cot pi/3 =", float(1 / np.tan(np.pi / 3)), ")")

banner("first-principles indicatrix Laplacian of t, model d=2 n=4 k=2")
p1, p2 = sp.symbols("phi1 phi2")
X4 = sp.Matrix([
    r * sp.cos(tt) * sp.cos(p1),
    r * sp.cos(tt) * sp.sin(p1),
    r * sp.sin(tt) * sp.cos(p2),
    r * sp.sin(tt) * sp.sin(p2),
])
q4 = sp.Matrix([r, tt, p1, p2])
g4 = hessian_metric(E, X4, q4)
lap4 = laplacian_t(g4, q4)
lap4_ind = sp.simplify(lap4 * r**2 * 2 * fg)
print("Delta_S t (d=2,n=4,k=2) =", sp.simplify(lap4_ind))
f_d2 = 1 + sp.Rational(1, 5) * sp.cos(2 * tt)
val4 = lap4_ind.subs(fg, f_d2).doit().subs(tt, sp.pi * sp.Rational(2, 7))
print("  for f = 1+0.2cos2t at t=2pi/7:", float(val4))
val4b = lap4_ind.subs(fg, f_d2).doit().subs(tt, sp.pi / 4)
print("  for f = 1+0.2cos2t at t=pi/4:", float(val4b))

banner("Cartan cubic anchors")
SQ3 = np.sqrt(3.0)
def cartan_p(v):
    a_, b_, x_, y_, z_ = v
    return (a_**3 - 3*a_*b_**2 + 1.5*a_*(x_*x_ + y_*y_ - 2*z_*z_)
            + 1.5*SQ3*b_*(x_*x_ - y_*y_) + 3*SQ3*x_*y_*z_)
print("p(1,0,0,0,0) =", cartan_p([1,0,0,0,0]))
print("p(0,1,0,0,0) =", cartan_p([0,1,0,0,0]), " -> t = arccos(0)/3 = pi/6 =", np.pi/6)
print("shape eigenvalues at t: cot(t), cot(t+pi/3), cot(t+2pi/3)")
print("  at t=pi/6:", [1/np.tan(np.pi/6 + k*np.pi/3) for k in range(3)])

banner("frame components, d=2 profile 1+0.2cos2t at t=pi/4, r=1")
print("g_rr = 2f = 2.0;  g_rt = f' = -0.4;  g_tt = f'' + 2f = 2.0")
print("tangential factors 2f + kappa f' for kappa = {cot(t), cot(t+pi/2)} = {1,-1}: ",
      [2.0 + 1*(-0.4), 2.0 + (-1)*(-0.4)])
