"""Golden bits of the one-angle exact-dual Legendre path.

The float-against-row tests compare two paths of the same code, so both
could drift together unseen.  This table pins the values themselves, as hex,
recorded at commit 088d4bc: one-angle `ode_residuals`, `DualProfile.jet(t,
2)` and `theta_jet(legendre, f, t, 1)` of the exact-dual Legendre triple of
f = c0 + c1 cos(d t), for d = 1, 2, 3, a mild and a near-bound c1 (0.95 of
the validity bound), at an interior angle, a negative one, two beyond pi/d
and one where the Legendre angle's unwrap, (t - raw) / 2 pi, is a tie of
round-half-even.  The h' and h'' entries and the `ode_residuals` column
were re-recorded when `DualProfile` took h' = -f'/G and h'' in closed form
from (f, f', f'') instead of the chain rule through theta_legendre' and
theta_legendre'' (tests/test_planar.py holds both against a 50-digit
reference); h and theta kept their bits.  The `ode_residuals` column was
re-recorded again when the exact Legendre triple took h, h' and h'' at
theta_legendre(t) in closed form at t, with no Newton solve back to t: 20
rows moved at rounding and h and theta kept their bits (CHANGES.md has the
table).
"""

import collections
import hashlib
import itertools
import math

import numpy as np
import pytest

from isonorm.foliation import (normal_plane_basis, parse_model,
                               random_leaf_points, shape_spectrum, t_coord,
                               unit_w)
from isonorm.hessian import (InducedNorm, closed_frame_matrix,
                             closed_fundamental_tensor, energy,
                             fd_fundamental_tensor, fd_indicatrix_operators,
                             riemann_fd)
from isonorm.isometry import (Decomposition, IsometryTriple, bump_profile,
                              check_d_property, legendre_map_tag,
                              ode_residuals, theta_jet)
from isonorm.planar import DualProfile, PlanarNorm, legendre_num_den
from isonorm.profile import Profile, is_minkowski

# (d, (c0, c1), t, ode_residuals, DualProfile.jet(t, 2), theta_jet(t, 1))
GOLDEN = [
    (1, (1.0, 0.4), '0x1.3333333333333p-2',
     ['0x1.0000000000000p-53', '0x0.0p+0'],
     ['0x1.733b34e7d3020p-3', '0x1.27e630ee67387p-6', '0x1.f82c3e8c90c66p-5'],
     ['0x1.076ffef836702p-2', '0x1.b77b16351e067p-1']),
    (1, (1.0, 0.4), '-0x1.ccccccccccccdp-1',
     ['-0x1.0000000000000p-53', '0x0.0p+0'],
     ['0x1.a17eed2a499ddp-3', '-0x1.e03fcd08def86p-5', '0x1.33640ae5dda8ap-4'],
     ['-0x1.8ce4e4e4b2a69p-1', '0x1.bdf132635f8c1p-1']),
    (1, (1.0, 0.4), '0x1.c552e8777604bp+1',
     ['0x1.0000000000000p-51', '0x1.4000000000000p-52'],
     ['0x1.9a35055c64872p-2', '-0x1.3d58afcbca008p-4', '-0x1.52ecdb0c04c3ap-3'],
     ['0x1.d50771a005cefp+1', '0x1.41e1445200337p+0']),
    (1, (1.0, 0.4), '0x1.199999999999ap+2',
     ['-0x1.0000000000000p-51', '-0x1.0000000000000p-53'],
     ['0x1.31efec087445ap-2', '-0x1.08dfcdb48e256p-3', '0x1.336f29f7dfef5p-5'],
     ['0x1.274697bf07adap+2', '0x1.f43818fef694ep-1']),
    (1, (1.0, 0.4), '0x1.921fb54442dcfp+53',
     ['0x0.0p+0', '0x1.781be4bb94610p-5'],
     ['0x1.0ba90e75676e7p-2', '0x1.c96ce2c313beep-4', '0x1.27470ef13dc41p-4'],
     ['0x1.921fb54442dcep+53', '0x1.c0b399a42aeadp-1']),
    (1, (0.8, 0.76), '0x1.3333333333333p-2',
     ['-0x1.8000000000000p-52', '-0x1.0000000000000p-56'],
     ['0x1.51ee62bdcbf5bp-3', '0x1.092ed292b82fcp-5', '0x1.e19e006a3ee5fp-4'],
     ['0x1.cff718759b384p-3', '0x1.8157d151afe0fp-1']),
    (1, (0.8, 0.76), '-0x1.ccccccccccccdp-1',
     ['0x1.0000000000000p-53', '0x0.0p+0'],
     ['0x1.b2c1b363b3320p-3', '-0x1.265c59f56ee53p-3', '0x1.420def01801a3p-2'],
     ['-0x1.5724267164ec4p-1', '0x1.70c0c6699b351p-1']),
    (1, (0.8, 0.76), '0x1.c552e8777604bp+1',
     ['0x1.8000000000000p-49', '-0x1.0000000000000p-52'],
     ['0x1.591dc21bf485bp+2', '-0x1.03a2e77611ecbp+2', '-0x1.f874c0907f3dep+2'],
     ['0x1.21292fcd71890p+2', '0x1.72c8b0e4db98ep-1']),
    (1, (0.8, 0.76), '0x1.199999999999ap+2',
     ['-0x1.0000000000000p-53', '0x0.0p+0'],
     ['0x1.1eb66e162565ep+0', '-0x1.af5d088acee9ep+1', '0x1.1579ca291c060p+3'],
     ['0x1.3df6a74065701p+2', '0x1.227fcdba9e56cp-1']),
    (1, (0.8, 0.76), '0x1.921fb54442d1cp+53',
     ['0x1.4000000000000p-51', '0x1.76277932e8910p-5'],
     ['0x1.5d19c1ba13a9ap-1', '0x1.e942c43452a72p+0', '0x1.02bef26dc082ep+3'],
     ['0x1.921fb54442d1ep+53', '0x1.62d5db81a52f8p-1']),
    (2, (1.0, -0.3), '0x1.3333333333333p-2',
     ['0x1.0000000000000p-51', '0x0.0p+0', '0x1.0000000000000p-53'],
     ['0x1.5ef92f63e906bp-2', '-0x1.7d3a0bcb82928p-4', '-0x1.169e692a5dc67p-2'],
     ['0x1.0afac992f6216p-1', '0x1.87a976785ba11p+0']),
    (2, (1.0, -0.3), '-0x1.ccccccccccccdp-1',
     ['0x0.0p+0', '0x0.0p+0', '-0x1.0000000000000p-53'],
     ['0x1.0624d1992de5ap-2', '0x1.48c0fb800e445p-3', '0x1.32cc38023af7ep-4'],
     ['-0x1.2abf5371e72e8p+0', '0x1.7beeddae3005fp-1']),
    (2, (1.0, -0.3), '0x1.f8861baaa937ep+0',
     ['0x0.0p+0', '-0x1.0000000000000p-53', '0x1.0000000000000p-56'],
     ['0x1.bd0a15ca519b7p-3', '0x1.e4556742760e0p-4', '0x1.d66451a1463b1p-3'],
     ['0x1.cb6d787d26f8ap+0', '0x1.34f5e98b495d9p-1']),
    (2, (1.0, -0.3), '0x1.199999999999ap+2',
     ['-0x1.0000000000000p-52', '-0x1.0000000000000p-53', '-0x1.1000000000000p-53'],
     ['0x1.a9bb63d9cbdd1p-3', '-0x1.8aea5f86debd9p-4', '0x1.11cf8cb1ae9a5p-2'],
     ['0x1.2292c22fbc08dp+2', '0x1.2782f4de08d39p-1']),
    (2, (1.0, -0.3), '0x1.921fb54442d1bp+53',
     ['0x1.0000000000000p-53', '0x1.5f47ac3482834p-1', '0x1.6f2cf0612bd90p-5'],
     ['0x1.6089476e1e0f8p-2', '0x1.6a467142fbb78p-4', '-0x1.1cdec95331e9bp-2'],
     ['0x1.921fb54442d1dp+53', '0x1.957842777e453p-1']),
    (2, (1.5, -1.425), '0x1.3333333333333p-2',
     ['0x1.0000000000000p-51', '0x0.0p+0', '-0x1.c000000000000p-53'],
     ['0x1.865c4092850bep+1', '-0x1.d57942ac65888p+0', '-0x1.571d276f6ebe4p+2'],
     ['0x1.7cf3c9fb8c902p+0', '0x1.2a99258510394p-2']),
    (2, (1.5, -1.425), '-0x1.ccccccccccccdp-1',
     ['0x1.8000000000000p-55', '0x0.0p+0', '0x1.2800000000000p-53'],
     ['0x1.572724e9117f0p+0', '0x1.94dab0fa24898p+1', '0x1.79d0d332276fep+0'],
     ['-0x1.8cea668bbceccp+0', '0x1.562f0f15c0075p-5']),
    (2, (1.5, -1.425), '0x1.f8861baaa937ep+0',
     ['-0x1.8000000000000p-54', '-0x1.0000000000000p-52', '0x1.2a00000000000p-53'],
     ['0x1.27ef4ee49b79fp-1', '0x1.2a3953bab35bep+1', '0x1.21a3b2434d9c3p+2'],
     ['0x1.94e625742755dp+0', '0x1.ef23b1c85b9fdp-6']),
    (2, (1.5, -1.425), '0x1.199999999999ap+2',
     ['0x1.e000000000000p-55', '-0x1.0000000000000p-52', '-0x1.e000000000000p-56'],
     ['0x1.91a7eaad8c94dp-2', '-0x1.e654c63b6c600p+0', '0x1.51315f0a3834ap+2'],
     ['0x1.2d101b36a4449p+2', '0x1.cfe3c7aad2a8fp-6']),
    (2, (1.5, -1.425), '0x1.921fb54442d18p+53',
     ['0x1.0000000000000p-52', '-0x1.e1b50b1707330p-5', '0x1.3160d35d57531p+0'],
     ['0x1.aaaaaaaaaaaafp+1', '-0x0.0p+0', '-0x1.9fb9fb9fb9fbfp+2'],
     ['0x1.921fb54442d17p+53', '0x1.7dd9441ae646bp-4']),
    (3, (0.5, 0.05), '0x1.3333333333333p-2',
     ['-0x1.0000000000000p-51', '-0x1.0000000000000p-56', '0x1.0000000000000p-52', '0x1.8000000000000p-52'],
     ['0x1.e9df886a1536fp-2', '0x1.161f7969cd5edp-3', '0x1.a23df4ec0e96fp-3'],
     ['0x1.84c3252534aa8p-3', '0x1.6e69c8ebd791ep-1']),
    (3, (0.5, 0.05), '-0x1.ccccccccccccdp-1',
     ['-0x1.8000000000000p-51', '0x0.0p+0', '0x1.0000000000000p-56', '0x1.0000000000000p-52'],
     ['0x1.1a690fed75a44p-1', '-0x1.b5c6e05077598p-5', '-0x1.64c67353d5020p-2'],
     ['-0x1.a8c641ad07d72p-1', '0x1.6f6779b777dfdp+0']),
    (3, (0.5, 0.05), '0x1.727b89e93d9ccp+0',
     ['0x1.0000000000000p-52', '0x1.0000000000000p-52', '0x1.0000000000000p-53', '-0x1.0000000000000p-54'],
     ['0x1.0e60ce8c46632p-1', '-0x1.03509cbfa3d95p-3', '-0x1.aca6121db723ep-3'],
     ['0x1.975c7ccd907a4p+0', '0x1.1fde51ab9ac44p+0']),
    (3, (0.5, 0.05), '0x1.199999999999ap+2',
     ['-0x1.0000000000000p-52', '0x1.0000000000000p-52', '-0x1.c000000000000p-51', '0x1.3000000000000p-52'],
     ['0x1.de8d31d049574p-2', '0x1.c67ecd5afec55p-4', '0x1.6ea5085443938p-2'],
     ['0x1.145a0ea0e039ep+2', '0x1.4e743da9fb43fp-1']),
    (3, (0.5, 0.05), '0x1.921fb54442dcfp+53',
     ['-0x1.0000000000000p-51', '0x1.759037577b5e0p-5', '-0x1.837069a105d73p-1', '-0x1.837069a105d73p-1'],
     ['0x1.0275f82bc278ap-1', '0x1.309f7109bd3fbp-3', '-0x1.7fb6383959fb4p-5'],
     ['0x1.921fb54442dcep+53', '0x1.88624ba8ef6a1p-1']),
    (3, (1.2, 0.3257), '0x1.3333333333333p-2',
     ['-0x1.0000000000000p-52', '0x1.4000000000000p-57', '0x0.0p+0', '-0x1.0000000000000p-53'],
     ['0x1.a380b243084bcp-3', '0x1.58b97eec9f482p-3', '0x1.05dd7b3c2a6c0p-5'],
     ['0x1.135846276ee1bp-5', '0x1.06f69ad399ae3p-2']),
    (3, (1.2, 0.3257), '-0x1.ccccccccccccdp-1',
     ['0x1.0000000000000p-51', '-0x1.0000000000000p-53', '0x1.c000000000000p-55', '0x1.0000000000000p-53'],
     ['0x1.20dcc5bd71b50p-2', '-0x1.a950f25b41198p-5', '-0x1.5df6f6430ab7fp-2'],
     ['-0x1.58c5e5a5e8557p-1', '0x1.24eb87ccd9402p+1']),
    (3, (1.2, 0.3257), '0x1.727b89e93d9ccp+0',
     ['0x1.0000000000000p-51', '0x0.0p+0', '0x1.c000000000000p-53', '0x1.8000000000000p-52'],
     ['0x1.091a2e9b1ea1ap-2', '-0x1.04e031ae55306p-3', '-0x1.ecfc278dc7d5cp-3'],
     ['0x1.d875a380095fbp+0', '0x1.1db6aed1e7ca2p+0']),
    (3, (1.2, 0.3257), '0x1.199999999999ap+2',
     ['-0x1.8000000000000p-54', '0x1.8000000000000p-52', '-0x1.8000000000000p-51', '-0x1.6000000000000p-54'],
     ['0x1.856d0a94b3e98p-3', '0x1.496efb059d226p-3', '0x1.23234231bcfc7p-3'],
     ['0x1.0d1a5cff45c4fp+2', '0x1.2e094955fb096p-3']),
    (3, (1.2, 0.3257), '0x1.921fb54442d1bp+53',
     ['-0x1.0000000000000p-51', '0x1.7f50cbb2f592dp-1', '0x1.90a92a988baa0p-5', '0x1.90a92a988baa0p-5'],
     ['0x1.118de5f18a4c0p-2', '0x1.bfc66fb9ec182p-4', '-0x1.1bc466e0900e6p-2'],
     ['0x1.921fb54442d1dp+53', '0x1.d976985e8f8d9p-1']),
]


# the last angle of each triple is the unwrap's tie
TIE_ANGLES = {(d, c): t for d, c, t, *_ in GOLDEN}


def _hex(values):
    return [float(v).hex() for v in values]


@pytest.mark.parametrize("row", GOLDEN, ids=lambda row: f"d{row[0]}-{row[1][1]}-"
                         f"{float.fromhex(row[2]):.4g}")
def test_one_angle_exact_dual_path_keeps_its_recorded_bits(row):
    d, coeffs, t, ode, h, theta = row
    f = Profile(d, coeffs)
    tr = IsometryTriple(f=f, h=DualProfile(f), theta=legendre_map_tag())
    t = float.fromhex(t)
    assert _hex(ode_residuals(tr, t)) == ode
    assert _hex(tr.h.jet(t, 2)) == h
    assert _hex(theta_jet(tr.theta, f, t, 1)) == theta


@pytest.mark.parametrize("key", TIE_ANGLES, ids=str)
def test_the_tie_angles_are_ties(key):
    (d, coeffs), t = key, float.fromhex(TIE_ANGLES[key])
    f0, f1 = Profile(d, coeffs).jet(t, 1)
    num, den = legendre_num_den(f0, f1, float(np.sin(t)), float(np.cos(t)))
    turns = (t - float(np.arctan2(num, den))) / (2.0 * math.pi)
    assert turns - math.floor(turns) == 0.5


# --- Profile.jet of short series and Profile.stationary_angles -------------
# Recorded at commit 1833990: jet(t, 3) of 1-, 2- and 3-term profiles for
# d = 1, 2, 3 at an interior and a negative angle (jet(t, k) is its first
# k + 1 entries), and the stationary angles of profiles of 2 to 4 terms, the
# last with a trailing coefficient below eps * max|c| that the root finder
# drops.
PROFILE_JETS = [
    (1, (0.5,), '0x1.6666666666666p-1',
     ['0x1.0000000000000p-1', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0']),
    (1, (0.5,), '-0x1.2666666666666p+1',
     ['0x1.0000000000000p-1', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0']),
    (2, (0.5,), '0x1.6666666666666p-1',
     ['0x1.0000000000000p-1', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0']),
    (2, (0.5,), '-0x1.2666666666666p+1',
     ['0x1.0000000000000p-1', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0']),
    (3, (0.5,), '0x1.6666666666666p-1',
     ['0x1.0000000000000p-1', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0']),
    (3, (0.5,), '-0x1.2666666666666p+1',
     ['0x1.0000000000000p-1', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0']),
    (1, (1.0, 0.3), '0x1.6666666666666p-1',
     ['0x1.3abd68c64be09p+0', '-0x1.8bceae4ba8543p-3', '-0x1.d5eb46325f04ap-3', '0x1.8bceae4ba8543p-3']),
    (1, (1.0, 0.3), '-0x1.2666666666666p+1',
     ['0x1.99a8f5f718b3cp-1', '0x1.ca2949cd03891p-3', '0x1.995c28239d30ep-3', '-0x1.ca2949cd03891p-3']),
    (2, (1.0, -0.45), '0x1.6666666666666p-1',
     ['0x1.d8d6ee13dd302p-1', '0x1.c618615bdfdb5p-1', '0x1.39488f61167f0p-2', '-0x1.c618615bdfdb5p+1']),
    (2, (1.0, -0.45), '-0x1.2666666666666p+1',
     ['0x1.0ceb8339e84cap+0', '0x1.c9e48f7d48840p-1', '-0x1.9d70673d09936p-3', '-0x1.c9e48f7d48840p+1']),
    (3, (0.5, 0.05), '0x1.6666666666666p-1',
     ['0x1.e626e1923f01fp-2', '-0x1.092d8bff3ab65p-3', '0x1.d14423b791dccp-3', '0x1.2a533d7f220d2p+0']),
    (3, (0.5, 0.05), '-0x1.2666666666666p+1',
     ['0x1.14e1ef9ec1a84p-1', '0x1.6364b549cecdfp-4', '-0x1.77e2d9299dd49p-2', '-0x1.8fd14bf308a7ap-1']),
    (1, (0.8, 0.1, 0.02), '0x1.6666666666666p-1',
     ['0x1.c28019229a884p-1', '-0x1.a953e0c4e1f24p-4', '-0x1.70f964bb5fca2p-4', '0x1.c6d9133e1b904p-3']),
    (1, (0.8, 0.1, 0.02), '-0x1.2666666666666p+1',
     ['0x1.765695f7e284cp-1', '0x1.1d44dfeb76201p-5', '0x1.35a823efa8390p-4', '0x1.59c8d3c31ad22p-4']),
    (2, (1.0, 0.2, -0.03), '0x1.6666666666666p-1',
     ['0x1.0ff0472031339p+0', '-0x1.6a7a13dbb3209p-2', '-0x1.2d2dd9c56cc6ep-1', '0x1.ddf94248ef1d4p-1']),
    (2, (1.0, 0.2, -0.03), '-0x1.2666666666666p+1',
     ['0x1.01be9d6d1c00ep+0', '-0x1.b2679070b2800p-2', '-0x1.8347a01a5bf10p-2', '0x1.02490c3a59a55p+1']),
    (3, (0.5, 0.02, 0.005), '0x1.6666666666666p-1',
     ['0x1.f3268ecb6a42cp-2', '-0x1.a42c23339c077p-6', '0x1.6ed612543afc7p-3', '-0x1.e692a4c7b7946p-2']),
    (3, (0.5, 0.02, 0.005), '-0x1.2666666666666p+1',
     ['0x1.09332d5febb9cp-1', '0x1.021e61d5fd6eep-4', '-0x1.a6a9165d841a6p-3', '-0x1.54e061c2db6e9p+0']),
]

STATIONARY_ANGLES = [
    (1, (1.0, 0.3),
     ['0x1.921fb54442d18p+1']),
    (2, (1.0, 0.2, -0.03),
     ['0x1.921fb54442d18p+0', '0x0.0p+0', '0x0.0p+0', '0x1.921fb54442d18p-1']),
    (3, (0.5, 0.02, 0.005, -0.001),
     ['0x1.0c152382d7365p+0', '0x1.0c152382d7365p+0', '0x0.0p+0', '0x1.a578dfbbe4a23p-1', '0x0.0p+0', '0x1.483abbe3dd8bdp-1', '0x0.0p+0']),
    (2, (1.0, 0.1, 0.01, 1e-19),
     ['0x1.921fb54442d18p+0', '0x1.921fb54442d18p+0', '0x1.921fb54442d18p+0', '0x1.921fb54442d18p-1']),
]

# SHA-256 over the stationary angles of STATIONARY_SEED's 32 random profiles
# of 1 to 32 terms (every fifth with a tail below eps * max|c|) and of the
# 96-term glue base, one line of hex floats per profile.  Re-pinned when the
# glue base became a DCT fit (`lobatto_fit`): only its line moved, and its
# angles on the round stretches, where phi' is rounding noise, by up to 1e-5
STATIONARY_SEED = 2024
STATIONARY_DIGEST = "a763c8cb40a5ca7593c262ccf66813de6ecfe511a3d41fbc6780bd4da6a07a65"


@pytest.mark.parametrize("row", PROFILE_JETS, ids=lambda row: f"d{row[0]}-"
                         f"{len(row[1])}terms-{float.fromhex(row[2]):.3g}")
def test_profile_jet_of_a_float_keeps_its_recorded_bits(row):
    # a float, a numpy scalar, a 0-d array and the angle's flat-array row
    d, coeffs, t, golden = row
    p, t = Profile(d, coeffs), float.fromhex(t)
    for k in range(4):
        for form in (t, np.float64(t), np.array(t)):
            out = p.jet(form, k)
            assert all(type(v) is float for v in out)
            assert _hex(out) == golden[:k + 1]
        assert _hex(v[0] for v in p.jet(np.array([t, 1.0]), k)) == golden[:k + 1]
        assert _hex([p.evaluate(t, k)]) == golden[k:k + 1]


def test_profile_jet_of_an_int_angle_is_that_of_its_float():
    for d, coeffs, *_ in PROFILE_JETS[::2]:
        p = Profile(d, coeffs)
        for t, k in itertools.product((2, -3), range(4)):
            out = p.jet(t, k)
            assert all(type(v) is float for v in out)
            assert _hex(out) == _hex(p.jet(float(t), k))


@pytest.mark.parametrize("coeffs", [(0.5,), (1.0, 0.3), (0.8, 0.1, 0.02),
                                    tuple(0.1 ** j for j in range(5))])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_profile_jet_of_a_non_finite_angle_raises(coeffs, bad):
    p = Profile(2, coeffs)
    for t in (bad, np.float64(bad), np.array(bad), np.array([0.3, bad])):
        for k in range(4):
            with pytest.raises(ValueError, match="non-finite angle"):
                p.jet(t, k)
        with pytest.raises(ValueError, match="non-finite angle"):
            p.evaluate(t, 1)
    for k in (-1, 4):
        with pytest.raises(ValueError, match=f"k must be in 0..3, got {k}"):
            p.jet(0.3, k)


@pytest.mark.parametrize("row", STATIONARY_ANGLES, ids=lambda row: f"d{row[0]}-"
                         f"{len(row[1])}terms")
def test_stationary_angles_keep_their_recorded_bits(row):
    d, coeffs, golden = row
    assert _hex(Profile(d, coeffs).stationary_angles()) == golden


def test_stationary_angles_of_random_profiles_keep_their_recorded_bits():
    rng = np.random.default_rng(STATIONARY_SEED)
    profiles = []
    for n in range(1, 33):
        d = int(rng.choice([1, 2, 3]))
        c = rng.normal(size=n) * rng.uniform(0.0, 1.0, size=n) ** 3
        if n % 5 == 0:
            c[-1] = 1e-18 * abs(c[0])
        profiles.append(Profile(d, tuple(c)))
    profiles.append(bump_profile(3, [(0.24, 0.4), (0.78, 0.36)]))
    h = hashlib.sha256()
    for p in profiles:
        h.update(" ".join(_hex(p.stationary_angles())).encode() + b"\n")
    assert h.hexdigest() == STATIONARY_DIGEST


# --- is_minkowski reports of short series ----------------------------------
# Recorded at commit 07063c8, before every series length went through one
# candidate rule: min_f, min_gap and argmin as hex, and the status, of
# `is_minkowski` on profiles of 1 to 3 terms for every d: valid; marginal (at
# the validity bound, scaled down to about 1e-12, or f touching zero);
# invalid (f or the gap negative); c1 = 0; and a complex pair of phi's roots
# whose real part lies inside or outside [-1, 1].  Each valid profile's
# exact dual has a row of its own.
VALIDITY_REPORTS = [
    (1, (0.5,), 'profile',
     '0x1.0000000000000p-1', '0x1.0000000000000p+0', '0x0.0p+0', 'valid'),
    (1, (0.5,), 'dual',
     '0x1.0000000000000p-1', '0x1.0000000000000p+0', '0x0.0p+0', 'valid'),
    (1, (0.0,), 'profile',
     '0x0.0p+0', '0x0.0p+0', '0x0.0p+0', 'marginal'),
    (1, (-0.5,), 'profile',
     '-0x1.0000000000000p-1', '0x1.0000000000000p+0', '0x0.0p+0', 'invalid'),
    (1, (1.0, 0.5), 'profile',
     '0x1.0000000000000p-1', '0x1.8000000000000p+0', '0x1.921fb54442d18p+1', 'valid'),
    (1, (1.0, 0.5), 'dual',
     '0x1.5555555555555p-3', '0x1.1111111111111p-3', '0x0.0p+0', 'valid'),
    (1, (1.0, 1.0), 'profile',
     '0x0.0p+0', '-0x1.377ce858a5d48p-106', '0x1.921fb54442d18p+1', 'marginal'),
    (1, (1.0, 1.5), 'profile',
     '-0x1.0000000000000p-1', '-0x1.3fffffffffffep+0', '0x1.267791e35f0c4p+1', 'invalid'),
    (1, (1.0, 0.0), 'profile',
     '0x1.0000000000000p+0', '0x1.0000000000000p+2', '0x0.0p+0', 'valid'),
    (1, (1.0, 0.0), 'dual',
     '0x1.0000000000000p-2', '0x1.0000000000000p-2', '0x0.0p+0', 'valid'),
    (1, (0.8, 0.4, 0.3), 'profile',
     '0x1.bbbbbbbbbbbbdp-2', '0x1.ae147ae147ae0p-1', '0x1.921fb54442d18p+1', 'valid'),
    (1, (0.8, 0.4, 0.3), 'dual',
     '0x1.5555555555555p-3', '0x1.e79e79e79e79ep-3', '0x0.0p+0', 'valid'),
    (1, (8e-13, 4e-13, 3e-13), 'profile',
     '0x1.e7e3d464f95b7p-42', '0x1.03f7a8112b547p-80', '0x1.921fb54442d18p+1', 'marginal'),
    (1, (1.0, 0.5, 1.5), 'profile',
     '-0x1.0aaaaaaaaaaabp-1', '-0x1.8000000000000p+2', '0x1.921fb54442d18p+1', 'invalid'),
    (1, (0.2, 0.5, 0.1), 'profile',
     '-0x1.9999999999999p-3', '-0x1.4b6d8342d3020p-3', '0x1.cab462a8115dbp+0', 'invalid'),
    (1, (1.0, 0.0, 0.3), 'profile',
     '0x1.6666666666666p-1', '0x1.d1eb851eb851ep+1', '0x1.921fb54442d18p+0', 'valid'),
    (1, (1.0, 0.0, 0.3), 'dual',
     '0x1.89d89d89d89d8p-3', '0x1.1951951951950p-2', '0x0.0p+0', 'valid'),
    (1, (1.0, 0.0, -0.3), 'profile',
     '0x1.6666666666666p-1', '0x1.d1eb851eb851ep+1', '0x0.0p+0', 'valid'),
    (1, (1.0, 0.0, -0.3), 'dual',
     '0x1.89d89d89d89d8p-3', '0x1.1951951951950p-2', '0x1.921fb54442d18p+0', 'valid'),
    (1, (1.0, 0.1, 0.4), 'profile',
     '0x1.3199999999999p-1', '0x1.6e147ae147ae5p+1', '0x1.921fb54442d18p+1', 'valid'),
    (1, (1.0, 0.1, 0.4), 'dual',
     '0x1.5555555555555p-3', '0x1.0690690690691p-2', '0x0.0p+0', 'valid'),
    (1, (1.0, -0.3, 0.2), 'profile',
     '0x1.7ccccccccccccp-1', '0x1.2b851eb851ebap+1', '0x0.0p+0', 'valid'),
    (1, (1.0, -0.3, 0.2), 'dual',
     '0x1.5555555555555p-3', '0x1.674c59d31674cp-3', '0x1.921fb54442d18p+1', 'valid'),
    (2, (0.5,), 'profile',
     '0x1.0000000000000p-1', '0x1.0000000000000p+0', '0x0.0p+0', 'valid'),
    (2, (0.5,), 'dual',
     '0x1.0000000000000p-1', '0x1.0000000000000p+0', '0x0.0p+0', 'valid'),
    (2, (0.0,), 'profile',
     '0x0.0p+0', '0x0.0p+0', '0x0.0p+0', 'marginal'),
    (2, (-0.5,), 'profile',
     '-0x1.0000000000000p-1', '0x1.0000000000000p+0', '0x0.0p+0', 'invalid'),
    (2, (1.0, 0.5), 'profile',
     '0x1.0000000000000p-1', '0x1.8000000000000p+1', '0x0.0p+0', 'valid'),
    (2, (1.0, 0.5), 'dual',
     '0x1.5555555555555p-3', '0x1.5555555555555p-2', '0x0.0p+0', 'valid'),
    (2, (1.0, 1.0), 'profile',
     '0x0.0p+0', '-0x1.377ce858a5d48p-104', '0x1.921fb54442d18p+0', 'marginal'),
    (2, (1.0, 1.5), 'profile',
     '-0x1.0000000000000p-1', '-0x1.4000000000000p+2', '0x0.0p+0', 'invalid'),
    (2, (1.0, 0.0), 'profile',
     '0x1.0000000000000p+0', '0x1.0000000000000p+2', '0x0.0p+0', 'valid'),
    (2, (1.0, 0.0), 'dual',
     '0x1.0000000000000p-2', '0x1.0000000000000p-2', '0x0.0p+0', 'valid'),
    (2, (0.8, 0.4, 0.04285714285714285), 'profile',
     '0x1.c57c57c57c57cp-2', '0x1.fd130463796b0p-2', '0x0.0p+0', 'valid'),
    (2, (0.8, 0.4, 0.04285714285714285), 'dual',
     '0x1.9bf43ad9bf43bp-3', '0x1.7c77934b8cc5dp-2', '0x1.328d0fe33647ap-2', 'valid'),
    (2, (8e-13, 4e-13, 4.285714285714285e-14), 'profile',
     '0x1.f29ce180830ebp-42', '0x1.33b76e1ec5928p-81', '0x0.0p+0', 'marginal'),
    (2, (1.0, 0.5, 0.21428571428571427), 'profile',
     '0x1.479e79e79e79ep-1', '-0x1.b6db6db6db6dcp+2', '0x0.0p+0', 'invalid'),
    (2, (0.2, 0.5, 0.1), 'profile',
     '-0x1.9999999999999p-3', '-0x1.999999999999ap+1', '0x0.0p+0', 'invalid'),
    (2, (1.0, 0.0, 0.04285714285714285), 'profile',
     '0x1.ea0ea0ea0ea0fp-1', '0x1.75c28f5c28f5ap+1', '0x0.0p+0', 'valid'),
    (2, (1.0, 0.0, 0.04285714285714285), 'dual',
     '0x1.eaf57abd5eaf7p-3', '0x1.9b7b2680bc1afp-3', '0x1.921fb54442d18p-1', 'valid'),
    (2, (1.0, 0.0, -0.04285714285714285), 'profile',
     '0x1.ea0ea0ea0ea0ep-1', '0x1.75c28f5c28f5dp+1', '0x1.921fb54442d18p-1', 'valid'),
    (2, (1.0, 0.0, -0.04285714285714285), 'dual',
     '0x1.eaf57abd5eaf6p-3', '0x1.9b7b2680bc1b2p-3', '0x0.0p+0', 'valid'),
    (2, (1.0, 0.014285714285714285, 0.05714285714285714), 'profile',
     '0x1.e283a83a83a83p-1', '0x1.414e5e0a72f04p+1', '0x0.0p+0', 'valid'),
    (2, (1.0, 0.014285714285714285, 0.05714285714285714), 'dual',
     '0x1.ddddddddddddep-3', '0x1.83f052f8ad3a2p-3', '0x1.8a5debae404f8p-1', 'valid'),
    (2, (1.0, -0.3, 0.02857142857142857), 'profile',
     '0x1.7507507507507p-1', '0x1.541d41d41d420p+1', '0x1.921fb54442d18p+0', 'valid'),
    (2, (1.0, -0.3, 0.02857142857142857), 'dual',
     '0x1.8160581605815p-3', '0x1.dbf67b1204c2ap-3', '0x1.15bdfb834aa9dp+0', 'valid'),
    (3, (0.5,), 'profile',
     '0x1.0000000000000p-1', '0x1.0000000000000p+0', '0x0.0p+0', 'valid'),
    (3, (0.5,), 'dual',
     '0x1.0000000000000p-1', '0x1.0000000000000p+0', '0x0.0p+0', 'valid'),
    (3, (0.0,), 'profile',
     '0x0.0p+0', '0x0.0p+0', '0x0.0p+0', 'marginal'),
    (3, (-0.5,), 'profile',
     '-0x1.0000000000000p-1', '0x1.0000000000000p+0', '0x0.0p+0', 'invalid'),
    (3, (1.0, 0.14285714285714285), 'profile',
     '0x1.b6db6db6db6dcp-1', '0x1.2492492492492p+1', '0x0.0p+0', 'valid'),
    (3, (1.0, 0.14285714285714285), 'dual',
     '0x1.c000000000000p-3', '0x1.8e38e38e38e37p-3', '0x1.0c152382d7365p+0', 'valid'),
    (3, (1.0, 0.2857142857142857), 'profile',
     '0x1.6db6db6db6db7p-1', '0x0.0p+0', '0x0.0p+0', 'marginal'),
    (3, (1.0, 0.42857142857142855), 'profile',
     '0x1.2492492492492p-1', '-0x1.6db6db6db6db4p+1', '0x0.0p+0', 'invalid'),
    (3, (1.0, 0.0), 'profile',
     '0x1.0000000000000p+0', '0x1.0000000000000p+2', '0x0.0p+0', 'valid'),
    (3, (1.0, 0.0), 'dual',
     '0x1.0000000000000p-2', '0x1.0000000000000p-2', '0x0.0p+0', 'valid'),
    (3, (0.8, 0.11428571428571428, 0.01764705882352941), 'profile',
     '0x1.681efa681efa7p-1', '0x1.7db83be41ea20p-2', '0x0.0p+0', 'valid'),
    (3, (0.8, 0.11428571428571428, 0.01764705882352941), 'dual',
     '0x1.12b2ab4840a28p-2', '0x1.29f8f770c735cp-2', '0x1.b3f748abbcc6ep-2', 'valid'),
    (3, (8e-13, 1.1428571428571427e-13, 1.764705882352941e-14), 'profile',
     '0x1.8bf50d6d95407p-41', '0x1.cd7883904a0b8p-82', '0x0.0p+0', 'marginal'),
    (3, (1.0, 0.14285714285714285, 0.08823529411764705), 'profile',
     '0x1.c40553b1bc2f2p-1', '-0x1.3b28dfbb28dfap+2', '0x0.0p+0', 'invalid'),
    (3, (0.2, 0.5, 0.1), 'profile',
     '-0x1.9999999999999p-3', '-0x1.4cccccccccccep+3', '0x0.0p+0', 'invalid'),
    (3, (1.0, 0.0, 0.01764705882352941), 'profile',
     '0x1.f6f6f6f6f6f6fp-1', '0x1.6cb986531fecfp+1', '0x0.0p+0', 'valid'),
    (3, (1.0, 0.0, 0.01764705882352941), 'dual',
     '0x1.f71f133caba71p-3', '0x1.90ebd6056c9a2p-3', '0x1.0c152382d7365p-1', 'valid'),
    (3, (1.0, 0.0, -0.01764705882352941), 'profile',
     '0x1.f6f6f6f6f6f70p-1', '0x1.6cb986531feccp+1', '0x1.0c152382d7365p-1', 'valid'),
    (3, (1.0, 0.0, -0.01764705882352941), 'dual',
     '0x1.f71f133caba73p-3', '0x1.90ebd6056c9a4p-3', '0x0.0p+0', 'valid'),
    (3, (1.0, 0.0058823529411764705, 0.023529411764705882), 'profile',
     '0x1.f3dbdbdbdbdbdp-1', '0x1.3162534435263p+1', '0x0.0p+0', 'valid'),
    (3, (1.0, 0.0058823529411764705, 0.023529411764705882), 'dual',
     '0x1.f15f15f15f15ep-3', '0x1.76875f56b1a38p-3', '0x1.09d87feb21216p-1', 'valid'),
    (3, (1.0, -0.0857142857142857, 0.011764705882352941), 'profile',
     '0x1.da2347da2347ep-1', '0x1.18f46218f4623p+1', '0x1.0c152382d7365p+0', 'valid'),
    (3, (1.0, -0.0857142857142857, 0.011764705882352941), 'dual',
     '0x1.d286139a12089p-3', '0x1.aaef365a1fdd3p-3', '0x1.11c0d2952c666p-1', 'valid'),
    (4, (0.5,), 'profile',
     '0x1.0000000000000p-1', '0x1.0000000000000p+0', '0x0.0p+0', 'valid'),
    (4, (0.5,), 'dual',
     '0x1.0000000000000p-1', '0x1.0000000000000p+0', '0x0.0p+0', 'valid'),
    (4, (0.0,), 'profile',
     '0x0.0p+0', '0x0.0p+0', '0x0.0p+0', 'marginal'),
    (4, (-0.5,), 'profile',
     '-0x1.0000000000000p-1', '0x1.0000000000000p+0', '0x0.0p+0', 'invalid'),
    (4, (1.0, 0.07142857142857142), 'profile',
     '0x1.db6db6db6db6ep-1', '0x1.1249249249249p+1', '0x0.0p+0', 'valid'),
    (4, (1.0, 0.07142857142857142), 'dual',
     '0x1.ddddddddddddep-3', '0x1.6f96f96f96f96p-3', '0x1.921fb54442d18p-1', 'valid'),
    (4, (1.0, 0.14285714285714285), 'profile',
     '0x1.b6db6db6db6dcp-1', '0x0.0p+0', '0x0.0p+0', 'marginal'),
    (4, (1.0, 0.21428571428571427), 'profile',
     '0x1.9249249249249p-1', '-0x1.36db6db6db6dap+1', '0x0.0p+0', 'invalid'),
    (4, (1.0, 0.0), 'profile',
     '0x1.0000000000000p+0', '0x1.0000000000000p+2', '0x0.0p+0', 'valid'),
    (4, (1.0, 0.0), 'dual',
     '0x1.0000000000000p-2', '0x1.0000000000000p-2', '0x0.0p+0', 'valid'),
    (4, (0.8, 0.05714285714285714, 0.009677419354838708), 'profile',
     '0x1.814c35cb9eca8p-1', '0x1.630cb19e81f58p-2', '0x0.0p+0', 'valid'),
    (4, (0.8, 0.05714285714285714, 0.009677419354838708), 'dual',
     '0x1.27550fa6b846cp-2', '0x1.1db4f61fc5108p-2', '0x1.6bef606414e57p-2', 'valid'),
    (4, (8e-13, 5.714285714285714e-14, 9.677419354838709e-15), 'profile',
     '0x1.a7a3a8f394e98p-41', '0x1.ad3a863db79d8p-82', '0x0.0p+0', 'marginal'),
    (4, (1.0, 0.07142857142857142, 0.04838709677419355), 'profile',
     '0x1.e07a3de84b0d9p-1', '-0x1.1eac3d587ab10p+2', '0x0.0p+0', 'invalid'),
    (4, (0.2, 0.5, 0.1), 'profile',
     '-0x1.9999999999999p-3', '-0x1.47ae147ae147bp+4', '0x0.0p+0', 'invalid'),
    (4, (1.0, 0.0, 0.009677419354838708), 'profile',
     '0x1.fb0b8fb0b8fb1p-1', '0x1.69de4e9de4e9cp+1', '0x0.0p+0', 'valid'),
    (4, (1.0, 0.0, 0.009677419354838708), 'dual',
     '0x1.fb17b8068b0abp-3', '0x1.8db1df4951248p-3', '0x1.921fb54442d18p-2', 'valid'),
    (4, (1.0, 0.0, -0.009677419354838708), 'profile',
     '0x1.fb0b8fb0b8fb0p-1', '0x1.69de4e9de4ea0p+1', '0x1.921fb54442d18p-2', 'valid'),
    (4, (1.0, 0.0, -0.009677419354838708), 'dual',
     '0x1.fb17b8068b0a9p-3', '0x1.8db1df4951248p-3', '0x0.0p+0', 'valid'),
    (4, (1.0, 0.0032258064516129032, 0.012903225806451613), 'profile',
     '0x1.f957891578915p-1', '0x1.2c6836215a17cp+1', '0x0.0p+0', 'valid'),
    (4, (1.0, 0.0032258064516129032, 0.012903225806451613), 'dual',
     '0x1.f7df7df7df7e0p-3', '0x1.727958e2d1b02p-3', '0x1.8ff84f9e9d401p-2', 'valid'),
    (4, (1.0, -0.04285714285714285, 0.0064516129032258064), 'profile',
     '0x1.ed5c411ee8a43p-1', '0x1.0c9f7fa565b15p+1', '0x1.921fb54442d18p-1', 'valid'),
    (4, (1.0, -0.04285714285714285, 0.0064516129032258064), 'dual',
     '0x1.e7f0b5af46b7ap-3', '0x1.a13a54faea19cp-3', '0x1.7ee201f242638p-2', 'valid'),
    (6, (0.5,), 'profile',
     '0x1.0000000000000p-1', '0x1.0000000000000p+0', '0x0.0p+0', 'valid'),
    (6, (0.5,), 'dual',
     '0x1.0000000000000p-1', '0x1.0000000000000p+0', '0x0.0p+0', 'valid'),
    (6, (0.0,), 'profile',
     '0x0.0p+0', '0x0.0p+0', '0x0.0p+0', 'marginal'),
    (6, (-0.5,), 'profile',
     '-0x1.0000000000000p-1', '0x1.0000000000000p+0', '0x0.0p+0', 'invalid'),
    (6, (1.0, 0.029411764705882353), 'profile',
     '0x1.f0f0f0f0f0f0fp-1', '0x1.0787878787878p+1', '0x0.0p+0', 'valid'),
    (6, (1.0, 0.029411764705882353), 'dual',
     '0x1.f15f15f15f160p-3', '0x1.5fad40a57eb50p-3', '0x1.0c152382d7365p-1', 'valid'),
    (6, (1.0, 0.058823529411764705), 'profile',
     '0x1.e1e1e1e1e1e1ep-1', '0x1.0000000000000p-50', '0x0.0p+0', 'marginal'),
    (6, (1.0, 0.08823529411764705), 'profile',
     '0x1.d2d2d2d2d2d2dp-1', '-0x1.1696969696966p+1', '0x0.0p+0', 'invalid'),
    (6, (1.0, 0.0), 'profile',
     '0x1.0000000000000p+0', '0x1.0000000000000p+2', '0x0.0p+0', 'valid'),
    (6, (1.0, 0.0), 'dual',
     '0x1.0000000000000p-2', '0x1.0000000000000p-2', '0x0.0p+0', 'valid'),
    (6, (0.8, 0.023529411764705882, 0.004225352112676056), 'profile',
     '0x1.8fb760d7d4393p-1', '0x1.530c60bff0420p-2', '0x0.0p+0', 'valid'),
    (6, (0.8, 0.023529411764705882, 0.004225352112676056), 'dual',
     '0x1.3545353816c0dp-2', '0x1.16e63fea9071ep-2', '0x1.007591a360f32p-2', 'valid'),
    (6, (8e-13, 2.3529411764705884e-14, 4.225352112676056e-15), 'profile',
     '0x1.b77e246c05f79p-41', '0x1.99e261e0303c8p-82', '0x0.0p+0', 'marginal'),
    (6, (1.0, 0.029411764705882353, 0.02112676056338028), 'profile',
     '0x1.f29004754b161p-1', '-0x1.0cf017c13834ap+2', '0x0.0p+0', 'invalid'),
    (6, (0.2, 0.5, 0.1), 'profile',
     '-0x1.9999999999999p-3', '-0x1.8a3d70a3d70a4p+5', '0x0.0p+0', 'invalid'),
    (6, (1.0, 0.0, 0.004225352112676056), 'profile',
     '0x1.fdd62cb5b9546p-1', '0x1.67ea13e731782p+1', '0x0.0p+0', 'valid'),
    (6, (1.0, 0.0, 0.004225352112676056), 'dual',
     '0x1.fdd88141b499cp-3', '0x1.8b84714eaf883p-3', '0x1.0c152382d7365p-2', 'valid'),
    (6, (1.0, 0.0, -0.004225352112676056), 'profile',
     '0x1.fdd62cb5b9546p-1', '0x1.67ea13e731782p+1', '0x1.0c152382d7365p-2', 'valid'),
    (6, (1.0, 0.0, -0.004225352112676056), 'dual',
     '0x1.fdd88141b499cp-3', '0x1.8b84714eaf883p-3', '0x0.0p+0', 'valid'),
    (6, (1.0, 0.0014084507042253522, 0.005633802816901409), 'profile',
     '0x1.fd17cc1431096p-1', '0x1.290494a7578fap+1', '0x0.0p+0', 'valid'),
    (6, (1.0, 0.0014084507042253522, 0.005633802816901409), 'dual',
     '0x1.fc6b699f5423dp-3', '0x1.6fbfae7594066p-3', '0x1.0b2a12b5bc7f8p-2', 'valid'),
    (6, (1.0, -0.01764705882352941, 0.0028169014084507044), 'profile',
     '0x1.f8682e7dd0becp-1', '0x1.053d2047f1685p+1', '0x1.0c152382d7365p-1', 'valid'),
    (6, (1.0, -0.01764705882352941, 0.0028169014084507044), 'dual',
     '0x1.f5bb895d02793p-3', '0x1.9b89c51fad7dcp-3', '0x1.e9ec1d5b8a7c1p-3', 'valid'),
    (1, (0.75, 1.0, 0.25), 'profile',
     '0x0.0p+0', '0x0.0p+0', '0x1.921fb54442d18p+1', 'marginal'),
]


@pytest.mark.parametrize("row", VALIDITY_REPORTS, ids=lambda row: f"d{row[0]}-"
                         f"{row[1]}-{row[2]}")
def test_validity_reports_of_short_series_keep_their_recorded_bits(row):
    d, coeffs, kind, *golden = row
    p = Profile(d, coeffs)
    rep = is_minkowski(DualProfile(p) if kind == "dual" else p)
    assert [*_hex([rep.min_f, rep.min_gap, rep.argmin]), rep.status] == golden


# --- The field path ---------------------------------------------------------
# Recorded at commit e988108: SHA-256, per model and function, over the hex
# bits of the foliation geometry and the induced-norm tensors at
# FIELD_SEED's leaf points (one on each of 5 leaves in [0.3, pi/d - 0.3],
# scaled by FIELD_RADII), as one row and as the 5-row array, with each of
# perfbench field-sweep's profiles of the model; the one-point functions
# (shape_spectrum, and closed_frame_matrix read as `tensor` reads it, under
# its old name frame_components) take each row in turn.  Those two were
# re-recorded when shape_spectrum took one polar pass of x and its leaf
# basis from eigh of the leaf projector: kappa moved in its last bits.
# riemann_fd's four were re-recorded when it took T exact instead of a
# central difference of G (R and its floor moved; every other entry kept),
# and fd_indicatrix_operators' four when it took Delta t and |grad t|^2
# exact from the q-form pass instead of a difference of the flux.  The
# shape_spectrum and frame_components entries were re-recorded when
# shape_spectrum diagonalised its leaf block -leaf (Hess p - d p I) leaf^T
# / (d sin dt) in place of leaf S leaf^T (kappa and the eigenvectors moved
# in their last bits) and closed_frame_matrix took the closed kappa =
# cot(t + k pi/d) in place of the measured one; every other entry kept.
FIELD_SEED = 2027
FIELD_RADII = (1.0, 0.75, 1.5, 2.0, 0.3)
FIELD_PROFILES = {
    "d1:3": [(0.5,), (0.5, 0.0, 0.175), (0.5225, 0.3, 0.0225)],
    "d2:4:2": [(1.0,), (1.0, 0.4), (1.0, 0.15, 0.06)],
    "d2:8:3": [(1.0,), (1.0, 0.4), (1.0, 0.15, 0.06)],
    "cartan3": [(0.5,), (0.5, 0.05), (0.5, 0.02, 0.005)],
}
FIELD_DIGESTS = {
    "d1:3": {
        "closed_fundamental_tensor":
            "59b09cea5ad38441718a6982da1e1e8a3093009d1988b8c4ada158f92371df54",
        "energy":
            "adb9da29daeb71b75354e7d0574c5739654b270a58b953500c0409a5d17db8db",
        "fd_fundamental_tensor":
            "96db176d3de712a689ef554c39444d6c4ba24e4c80fe06b8df5ddb80ea320121",
        "fd_indicatrix_operators":
            "6cfbd2939e270898afac2fa3d95386457fc4e09c668f898f413a5bf24d23a7d1",
        "frame_components":
            "ffdb9db8de090ed9212dfda0f07842111cebdb47e32d0e10fe9b26e2b776b369",
        "normal_plane_basis":
            "8557a7b418717f0f52409749038bad03e84a0b3f82484e8b194f8f563bf256f0",
        "riemann_fd":
            "5800349865224a4871c03128fe27e4e925a9d8904c6abd4c2ca94f9901757c65",
        "shape_spectrum":
            "fd688732cbd9cc981c286017d6b7a906e0ac8000327051e2abbff566df89c9e3",
        "t_coord":
            "d8e40d72e55ae4a2f23bcbfb78ac9ce850b3ae1b0adc54d09c665b7c92d63c13",
        "unit_w":
            "e4c2f1068ed5a268796425edc5e0b365381d8f73efbef11800332c49ea88bce3",
    },
    "d2:4:2": {
        "closed_fundamental_tensor":
            "f31364dea4854fbfc673671b12603267e68d48d581e5056214e300988cfef719",
        "energy":
            "429cfd78b59e76120f089623f00fc9179d76248ef0b69c1bef396f141bd99da8",
        "fd_fundamental_tensor":
            "2d34733bf65f5602cd42824860fc76466a35af0f148b0856c0d50cc0cb1a7f7e",
        "fd_indicatrix_operators":
            "d34a270e8b78db0271b4b87d18fcea9d499d91fdcf12bdfb350244def7fd9f9a",
        "frame_components":
            "3807607a7b7485576e5e030fcdef46319a69d7d596ecd62502e05f33f6ebce26",
        "normal_plane_basis":
            "e5ee5f3a62930e7dae6ccbb3d15e8502a73b16820caa90d1d0658277d804ab25",
        "riemann_fd":
            "a575a13d0d98773d821b28abcd4afb02e5f63b2b0082492ad6e36bc6d0129f7a",
        "shape_spectrum":
            "384dc302418f36898c6a395b21d49900b443ce2fb5a5207065ca15ba45559dea",
        "t_coord":
            "bd98a13fa7c3ca1dadf5cf5ecb18ffea7874ef95bc22ab90f28197ec880c5853",
        "unit_w":
            "a72eea2d75fe28c26ecadec0b3982cbbc4e07ea3290d57f9cce542ea9e5eea24",
    },
    "d2:8:3": {
        "closed_fundamental_tensor":
            "704b19958f60ce656664fc849868134dace483983cd83dc06f4b5b38e7bc2ea5",
        "energy":
            "aa2091e243b8a072ed946fdc6b067ebb02ba5e181467ab0a90c23ba36dc86f84",
        "fd_fundamental_tensor":
            "973d60c761b1f2d45277a85d22805bb6e4cf9240575bc2e0aaa2c35e174d990e",
        "fd_indicatrix_operators":
            "0beecaa8e70f953ed816c1f09a91f3da7c78ef3e8cebe10aaad3154c965ed829",
        "frame_components":
            "4c2c803d948aee5cbdc0b9642566ed2ce317f9aee632b13f0144883c21edcf00",
        "normal_plane_basis":
            "d15b3eecde87a9e441e44b18f817120fea510391719f9eee0c295d4b755721cf",
        "riemann_fd":
            "e92e936203070282c75d02059716d9cd91de9777c01a4691b9e7932ed7672a09",
        "shape_spectrum":
            "20d18d05bd16c03defe3dd6a4c3f58b001c36cfe8ae003838421cd44cd777b8c",
        "t_coord":
            "6d914cd13de94f5976aa8ad3e7d34960c3cee71cb8534c5cf0ababe0af0ff3cc",
        "unit_w":
            "75c048587db38cf2bcaa9240b82578dde8a4b0c5516b6c65840e05e27548dd1d",
    },
    "cartan3": {
        "closed_fundamental_tensor":
            "74bbcd4d1846c949b40f2d9891531d39e4eb0e72c85e1f75b56b8463f870444a",
        "energy":
            "363b179c7dc43b3f4778b071eab56c886ed5805cfaebc9378fbd65092ef6cac6",
        "fd_fundamental_tensor":
            "4a68ccadddc3b2abbc49dba5e794f054ac0b8cf1b5f26ea5a0b4c3f5e6b922b5",
        "fd_indicatrix_operators":
            "6c5d4f3c813dee8e8e8be0efb7a5e47696e0f97bdbbfdec302922d184021990d",
        "frame_components":
            "2399bb08711a3475282d43d0845689007ff8b233c2047910bfcac072ea009470",
        "normal_plane_basis":
            "38b0ea6fdd28c051d75103a8f0d479113589ec2f33e8bcd80a2a9eda4b67d42e",
        "riemann_fd":
            "a94c214c91c7a5352ec04893268116e8db8f81a1f267558d35042f6fd668a906",
        "shape_spectrum":
            "3874d76e7f35dd7a19d2e79476dbea1b680ab639159a033318971e3ebafc5f76",
        "t_coord":
            "0511c16a2a6fe0e1d3665613859b630f9e1c0f7753baf4af773b55e6f4586ea3",
        "unit_w":
            "5b0c3d43b26b73e8919a71f3c912cd07a6e8ed5c6811030354188cad50308f74",
    },
}


def _field_digests(spec):
    """{function name: sha256 hex} of the field path on the model spec."""
    m = parse_model(spec)
    leaves = np.linspace(0.3, math.pi / m.d - 0.3, 5)
    xs = (random_leaf_points(m, leaves, 5, seed=FIELD_SEED)
          * np.array(FIELD_RADII)[:, None])
    hashes = collections.defaultdict(hashlib.sha256)

    def put(name, *values):
        for v in values:
            hashes[name].update(" ".join(_hex(np.ravel(v))).encode() + b"\n")

    spectra = [shape_spectrum(m, x) for x in xs]
    for spectrum in spectra:
        put("shape_spectrum", *(e.kappa for e in spectrum),
            *(e.basis for e in spectrum))
    for x in (xs[0], xs):
        put("t_coord", *t_coord(m, x))
        put("unit_w", unit_w(m, x))
        put("normal_plane_basis", *normal_plane_basis(m, x))
    for coeffs in FIELD_PROFILES[spec]:
        nm = InducedNorm(m, Profile(m.d, coeffs))
        for x, spectrum in zip(xs, spectra):
            # tensor's report fields: g_rr, g_rt, g_tt, tangential_factors
            M, r = closed_frame_matrix(nm, x, spectrum), t_coord(m, x).r
            starts = np.cumsum([2] + [e.multiplicity for e in spectrum])[:-1]
            put("frame_components", M[0, 0], r * M[0, 1], r * r * M[1, 1],
                [M[i, i] for i in starts])
        for x in (xs[0], xs):
            put("closed_fundamental_tensor", closed_fundamental_tensor(nm, x))
            put("riemann_fd", *riemann_fd(nm, x)[:2])
            put("fd_indicatrix_operators", *fd_indicatrix_operators(nm, x))
            put("fd_fundamental_tensor", fd_fundamental_tensor(nm, x).matrix)
            put("energy", energy(nm, x))
    return {name: h.hexdigest() for name, h in sorted(hashes.items())}


@pytest.mark.parametrize("spec", FIELD_PROFILES)
def test_field_path_keeps_its_recorded_bits(spec):
    assert _field_digests(spec) == FIELD_DIGESTS[spec]


# --- (d)-property residuals of a planar pair split by a unit vector --------
# Recorded at commit cf57fe4, when Decomposition took V' as an angle a:
# check_d_property(PlanarNorm(f), PlanarNorm(DualProfile(f)), identity,
# samples=10) for f = Profile(d, (1, 0.2)), d = 1, 2, 3, at the split angles
# a = -k pi/s of the isometry gallery, s = 1, 2, 3.  The identity is no
# isometry of f and its dual, so every residual is far from 0; V' is now the
# unit vector (cos a, sin a), which project_out takes as the same Q.
D_PROPERTY = [  # (d, s, k, max_residual)
    (1, 1, 0, '0x1.4e0b101858cfdp+1'),
    (1, 2, 1, '0x1.224134957e4ccp+0'),
    (1, 3, 1, '0x1.59b9cf61ecf77p+0'),
    (1, 3, 2, '0x1.db9f44bc53112p+0'),
    (2, 1, 0, '0x1.8cb807c3b08a4p+0'),
    (2, 2, 1, '0x1.924d33081785dp+0'),
    (2, 3, 1, '0x1.4a99e00752209p+1'),
    (2, 3, 2, '0x1.31d2fbbfda238p-1'),
    (3, 1, 0, '0x1.408ad48750856p-1'),
    (3, 2, 1, '0x1.342a9ca541850p+1'),
    (3, 3, 1, '0x1.4b1f595a157a0p+1'),
    (3, 3, 2, '0x1.16c7595fb9532p+0'),
]


@pytest.mark.parametrize("row", D_PROPERTY,
                         ids=lambda row: f"d{row[0]}-{-row[2]}pi/{row[1]}")
def test_d_property_of_a_unit_vector_split_keeps_its_recorded_bits(row):
    d, s, k, want = row
    f = Profile(d, (1.0, 0.2))
    a = -k * math.pi / s
    dec = Decomposition(vprime=(math.cos(a), math.sin(a)))
    got = check_d_property(PlanarNorm(f), PlanarNorm(DualProfile(f)),
                           lambda X: X, dec, samples=10).max_residual
    assert got.hex() == want
