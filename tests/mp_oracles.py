"""High-precision oracles of the indicatrix operators, for the tests.

The squared norm of grad t and the Laplacian of t on the indicatrix
(S_F, g) of F = r sqrt(2 f(t)), f(t) = sum_j c_j cos(j d t), at the point
of S_F over a direction, from 40-digit `mpmath.diff` of E = F^2/2 and of t.
Each model's p is written out here, so nothing of the package's derivatives
is read: G = Hess E, T = dG, dt and Hess t are partial derivatives of E and
t themselves, and the Laplacian is the one of the Levi-Civita connection of
g, G^ij (d_ij t - Gamma^k_ij d_k t) with Gamma^k_ij = (1/2) G^kl
(d_i G_lj + d_j G_li - d_l G_ij), at a point of S_F, where it equals the
Laplacian of the indicatrix.
"""

from itertools import combinations_with_replacement

import mpmath as mp

DPS = 40


def _p(d, k, y):
    """The isoparametric polynomial p of degree d on R^n, at y."""
    if d == 1:
        return y[0]
    if d == 2:
        return sum(v * v for v in y[:k]) - sum(v * v for v in y[k:])
    a, b, x, yy, z = y
    s3 = mp.sqrt(3)
    return (a ** 3 - 3 * a * b * b + mp.mpf(3) / 2 * a * (x * x + yy * yy - 2 * z * z)
            + mp.mpf(3) / 2 * s3 * b * (x * x - yy * yy) + 3 * s3 * x * yy * z)


def indicatrix_operators(d, k, coeffs, u0):
    """(|grad t|^2, Delta t) as floats at the point of S_F over the float
    direction u0 (taken exactly), for the model of order d (split k for
    d = 2) and the cosine coefficients of f."""
    n = len(u0)
    with mp.workdps(DPS):
        c = [mp.mpf(v) for v in coeffs]

        def t_of(*y):
            s = mp.fsum(v * v for v in y)
            return mp.acos(_p(d, k, y) / s ** (mp.mpf(d) / 2)) / d

        def energy(*y):
            t = t_of(*y)
            return mp.fsum(v * v for v in y) * mp.fsum(
                cj * mp.cos(j * d * t) for j, cj in enumerate(c))

        u = [mp.mpf(float(v)) for v in u0]
        x = [v / mp.sqrt(2 * energy(*u)) for v in u]  # E(x) = 1/2: F(x) = 1

        def partial(fun, *axes):
            return mp.diff(fun, x, tuple(axes.count(i) for i in range(n)))

        dt = [partial(t_of, i) for i in range(n)]
        H, G = mp.matrix(n, n), mp.matrix(n, n)
        for i, j in combinations_with_replacement(range(n), 2):
            H[i, j] = H[j, i] = partial(t_of, i, j)
            G[i, j] = G[j, i] = partial(energy, i, j)
        T = {}
        for i, j, l in combinations_with_replacement(range(n), 3):
            v = partial(energy, i, j, l)
            for key in {(i, j, l), (i, l, j), (j, i, l), (j, l, i), (l, i, j), (l, j, i)}:
                T[key] = v
        Gi = G ** -1
        grad = mp.fsum(Gi[i, j] * dt[i] * dt[j] for i in range(n) for j in range(n))
        gamma = [[mp.fsum(Gi[a, b] * (T[i, b, j] + T[j, b, i] - T[b, i, j])
                          for b in range(n)) / 2 for a in range(n)]
                 for i in range(n) for j in range(n)]
        lap = mp.fsum(Gi[i, j] * (H[i, j] - mp.fsum(gamma[i * n + j][a] * dt[a]
                                                   for a in range(n)))
                      for i in range(n) for j in range(n))
        return float(grad), float(lap)
