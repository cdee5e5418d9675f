"""The last point's frame, kept on its model, and q-form pass, kept on its
norm: the calls at one point share them, and every call returns the bits of
a call on new objects.  The last row set's are kept in slots of their own,
so a lifted map and the check's tensor share one frame of the sample rows.
Every kept result, of every kind, is no state and read-only."""

import copy
import math
import pickle

import numpy as np
import pytest

from isonorm import cli, foliation, hessian, isometry
from isonorm.foliation import (FocalProximityError, cartan3, d1, d2,
                               random_leaf_points, shape_spectrum, t_coord,
                               unit_w)
from isonorm.foliation import normal_plane_basis
from isonorm.hessian import (InducedNorm, closed_frame_matrix,
                             closed_fundamental_tensor, energy,
                             fd_fundamental_tensor, fd_indicatrix_laplacian_t,
                             fd_indicatrix_operators, frame_basis, riemann_fd)
from isonorm.isometry import (IsometryTriple, check_hessian_isometry,
                              legendre_map_tag, lift_to_nd)
from isonorm.planar import DualProfile
from isonorm.profile import (Profile, SectorProfile, _certified, is_minkowski,
                             save_profile)

# field-sweep's models, and a d2 pair of one n whose split differs
MODELS = {"d1:3": d1(3), "d2:4:2": d2(4, 2), "d2:8:3": d2(8, 3),
          "cartan3": cartan3(), "d2:6:2": d2(6, 2), "d2:6:4": d2(6, 4)}
BASES = {1: Profile(1, (0.5, 0.03, 0.01)), 2: Profile(2, (1.0, 0.2, 0.03)),
         3: Profile(3, (0.5, 0.02))}


def _profiles(d):
    base = BASES[d]
    return {"Profile": base, "DualProfile": DualProfile(base),
            "SectorProfile": SectorProfile(d, (0.5 * math.pi / d,),
                                           (base, base.scaled(1.2)))}


CASES = [(spec, kind) for spec in MODELS for kind in ("Profile", "DualProfile",
                                                      "SectorProfile")]


def _fresh(spec, kind):
    """New model and norm objects, equal to every other pair of the case."""
    m = foliation.parse_model(MODELS[spec].describe())
    return m, InducedNorm(m, _profiles(m.d)[kind])


# each public call at one point, on the model m and norm nm: field-sweep's
# six in its order, then the rest
CALLS = {
    "shape_spectrum": lambda m, nm, x: shape_spectrum(m, x),
    "fd_fundamental_tensor": lambda m, nm, x: fd_fundamental_tensor(nm, x),
    "frame_basis": lambda m, nm, x: frame_basis(nm, x, shape_spectrum(m, x)),
    "closed_frame_matrix":
        lambda m, nm, x: closed_frame_matrix(nm, x, shape_spectrum(m, x)),
    "riemann_fd": lambda m, nm, x: riemann_fd(nm, x),
    "fd_indicatrix_laplacian_t": lambda m, nm, x: fd_indicatrix_laplacian_t(nm, x),
    "fd_indicatrix_operators": lambda m, nm, x: fd_indicatrix_operators(nm, x),
    "t_coord": lambda m, nm, x: t_coord(m, x),
    "unit_w": lambda m, nm, x: unit_w(m, x),
    "energy": lambda m, nm, x: energy(nm, x),
}


def _bits(v):
    """v's type, shape and bytes, through tuples and lists (a ShapeEigen, a
    spectrum, a CurvatureResult): equal exactly when the bits are."""
    if isinstance(v, (tuple, list)):
        return type(v).__name__, tuple(_bits(e) for e in v)
    a = np.asarray(v)
    return type(v).__name__, a.dtype.str, a.shape, a.tobytes()


def _points(m, count=2, seed=3):
    return random_leaf_points(m, 0.4 * math.pi / m.d, count, seed=seed)


def _cold(spec, kind, x):
    """Each call's bits at x, each on new objects."""
    return {name: _bits(call(*_fresh(spec, kind), x)) for name, call in CALLS.items()}


@pytest.mark.parametrize("spec,kind", CASES)
def test_warm_calls_have_the_bits_of_cold_ones(spec, kind):
    # twice at each point of A, B, A: the second round and the return to A
    # read the kept frame and q-form, and no call may get B's or A's stale
    m, nm = _fresh(spec, kind)
    a, b = (1.7 * _points(m))
    cold = {0: _cold(spec, kind, a), 1: _cold(spec, kind, b)}
    for i, x in ((0, a), (1, b), (0, a)):
        for _ in range(2):
            for name, call in CALLS.items():
                assert _bits(call(m, nm, x)) == cold[i][name], (name, i)


def test_a_d2_pair_of_one_n_keeps_a_frame_each():
    # the same point bytes on d2:6:2 and d2:6:4 are two leaves of two models
    (m2, nm2), (m4, nm4) = _fresh("d2:6:2", "Profile"), _fresh("d2:6:4", "Profile")
    x = _points(m2)[0]
    cold = {2: _cold("d2:6:2", "Profile", x), 4: _cold("d2:6:4", "Profile", x)}
    assert cold[2]["t_coord"] != cold[4]["t_coord"]
    for k, m, nm in ((2, m2, nm2), (4, m4, nm4), (2, m2, nm2)):
        for name, call in CALLS.items():
            assert _bits(call(m, nm, x)) == cold[k][name], (name, k)


@pytest.mark.parametrize("spec", ["d1:3", "d2:4:2", "d2:8:3", "cartan3"])
def test_a_negative_zero_is_another_point(spec):
    # 0.0 and -0.0 compare equal, but u = x / r keeps the sign of a zero
    m, nm = _fresh(spec, "Profile")
    for x in _points(m, 6, seed=9):
        for j in range(m.n):
            plus = x.copy()
            plus[j] = 0.0
            minus = plus.copy()
            minus[j] = -0.0
            t = t_coord(m, plus).t
            if 0.2 < t < math.pi / m.d - 0.2:
                break
        else:
            continue
        break
    cold = _cold(spec, "Profile", minus)
    assert (_bits(foliation._polar(_fresh(spec, "Profile")[0], minus))
            != _bits(foliation._polar(_fresh(spec, "Profile")[0], plus)))
    for x in (plus, minus):
        for call in CALLS.values():
            call(m, nm, x)
    for name, call in CALLS.items():
        assert _bits(call(m, nm, minus)) == cold[name], name


def test_errors_are_raised_while_the_point_is_kept():
    m, nm = _fresh("d2:4:2", "Profile")
    x = _points(m)[0]
    spec = shape_spectrum(m, x)
    fd_indicatrix_operators(nm, x)
    riemann_fd(nm, x)
    # the one-point shape error: x[None] has x's bytes
    for call in (lambda y: shape_spectrum(m, y),
                 lambda y: frame_basis(nm, y, spec),
                 lambda y: closed_frame_matrix(nm, y, spec)):
        for _ in range(2):
            with pytest.raises(ValueError, match=r"one point of shape \(4,\)"):
                call(x[None])
    # the focal guard of a delta that x's t falls inside
    delta = t_coord(m, x).t + 0.01
    for call in (lambda: shape_spectrum(m, x, delta),
                 lambda: riemann_fd(nm, x, delta)):
        for _ in range(2):
            with pytest.raises(FocalProximityError, match="inside the focal guard"):
                call()
    # a focal cone: its polar data is kept, its w and q-form never are
    focal = 1.3 * np.eye(m.n)[0]
    for call in (lambda: frame_basis(nm, focal, []),
                 lambda: closed_frame_matrix(nm, focal, []),
                 lambda: unit_w(m, focal),
                 lambda: fd_indicatrix_operators(nm, focal)):
        for _ in range(2):
            with pytest.raises(FocalProximityError, match="degenerates"):
                call()
    # the origin, before and after
    for _ in range(2):
        with pytest.raises(ValueError, match="t undefined at the origin"):
            t_coord(m, np.zeros(m.n))


def _count(monkeypatch, module, name, calls):
    """Record the ndim of the second argument of each call of module.name."""
    one = getattr(module, name)
    monkeypatch.setattr(module, name,
                        lambda *a, one=one: calls.append((name, a[1].ndim)) or one(*a))


def _computing_helpers(monkeypatch):
    calls = []
    _count(monkeypatch, foliation, "_poly", calls)     # the polar pass's p
    _count(monkeypatch, foliation, "_unit_w", calls)   # w
    _count(monkeypatch, foliation, "_shape_pass", calls)  # the shape operator
    _count(monkeypatch, hessian, "_qform_pass", calls)  # G, T, dT, dt, Hess t
    return calls


@pytest.mark.parametrize("spec", ["d1:3", "d2:4:2", "d2:8:3", "cartan3"])
def test_field_sweeps_six_calls_share_one_pass_of_each(monkeypatch, spec):
    m, nm = _fresh(spec, "Profile")
    u = _points(m)[0]
    calls = _computing_helpers(monkeypatch)
    spectrum = shape_spectrum(m, u)
    fd_fundamental_tensor(nm, u)  # its stencil's rows: one pass, in the rows' slot
    frame_basis(nm, u, spectrum)
    closed_frame_matrix(nm, u, spectrum)
    riemann_fd(nm, u)
    fd_indicatrix_laplacian_t(nm, u)
    assert sorted(calls) == [("_poly", 1), ("_poly", 2), ("_qform_pass", 1),
                             ("_unit_w", 1)]
    assert "_shape" not in vars(m)  # the spectrum takes its leaf block alone


@pytest.mark.parametrize("spec", ["d1:3", "d2:4:2", "d2:8:3", "cartan3"])
def test_a_point_spectrum_forms_no_shape_operator(monkeypatch, spec):
    # shape_spectrum diagonalises its leaf block from the frame's u, p, t
    # and w: no S of the point is formed, kept or read
    m, _ = _fresh(spec, "Profile")
    u = _points(m)[0]
    calls = _computing_helpers(monkeypatch)
    _count(monkeypatch, foliation, "_shape_operator", calls)
    shape_spectrum(m, u)
    assert sorted(calls) == [("_poly", 1), ("_unit_w", 1)]
    assert "_shape" not in vars(m)


@pytest.mark.parametrize("spec", ["d1:3", "d2:4:2", "cartan3"])
def test_a_rows_closed_tensor_after_a_lift_reads_its_shape_rows(monkeypatch, spec):
    # the rows' S stays kept: closed_fundamental_tensor at the rows a lift's
    # jacobian took reads the one shape operator the jacobian formed
    m = foliation.parse_model(spec)
    f = BASES[m.d]
    tr = IsometryTriple(f=f, h=DualProfile(f), theta=legendre_map_tag())
    X = 1.3 * _points(m, 4, seed=5)
    calls = _computing_helpers(monkeypatch)
    lift_to_nd(tr, m).jacobian(X)
    kept = vars(m)["_shape_rows"]
    G = closed_fundamental_tensor(InducedNorm(m, f), X)
    assert calls.count(("_shape_pass", 2)) == 1 and vars(m)["_shape_rows"] is kept
    assert "_shape" not in vars(m)
    assert _bits(G) == _bits(closed_fundamental_tensor(
        InducedNorm(foliation.parse_model(spec), f), X))


@pytest.mark.parametrize("spec", ["d1:3", "d2:4:2", "d2:8:3", "cartan3"])
def test_a_row_call_leaves_the_points_slot(monkeypatch, spec):
    # field-sweep's six calls, each after a leaf draw and the FD stencil on
    # rows, whose passes the model keeps too: the point's stays
    m, nm = _fresh(spec, "Profile")
    u = _points(m)[0]
    calls = _computing_helpers(monkeypatch)
    for name in ("shape_spectrum", "fd_fundamental_tensor", "frame_basis",
                 "closed_frame_matrix", "riemann_fd", "fd_indicatrix_laplacian_t"):
        rows = random_leaf_points(m, 0.3, 3, seed=len(calls))
        closed_fundamental_tensor(nm, rows)
        fd_fundamental_tensor(nm, rows[0])
        CALLS[name](m, nm, u)
        assert vars(m)["_point"][0] == u.tobytes(), name
    point = [c for c in calls if c[1] == 1]
    assert sorted(point) == [("_poly", 1), ("_qform_pass", 1), ("_unit_w", 1)]
    assert "_shape" not in vars(m)


@pytest.mark.parametrize("spec", ["d1:3", "d2:4:2", "cartan3"])
def test_a_legendre_lift_check_forms_the_sample_rows_frame_once(monkeypatch, spec):
    # the lift's jacobian and G1 = closed_fundamental_tensor(norm1, X) share
    # X's polar pass, w and shape operator: the leaf draw's two row passes
    # and its w, X's and the images' Y, each with its w and S
    m = foliation.parse_model(spec)
    f = BASES[m.d]
    tr = IsometryTriple(f=f, h=DualProfile(f), theta=legendre_map_tag())
    calls = _computing_helpers(monkeypatch)
    check_hessian_isometry(InducedNorm(m, tr.f), InducedNorm(m, tr.h),
                           lift_to_nd(tr, m), samples=20, seed=7)
    assert sorted(calls) == [("_poly", 2)] * 4 + [("_shape_pass", 2)] * 2 + [
        ("_unit_w", 2)] * 3


def test_isonorm_tensor_forms_its_points_polar_data_once(monkeypatch, tmp_path,
                                                         capsys):
    # 7 polar passes before the frame was kept, the point's data formed 4
    # times: now the leaf draw's 2 row passes, the point's one and the FD
    # stencil's rows
    save_profile(BASES[3], tmp_path / "f.json")
    calls = _computing_helpers(monkeypatch)
    code = cli.main(["tensor", "--profile", str(tmp_path / "f.json"),
                     "--model", "cartan3", "--t", "0.5"])
    capsys.readouterr()
    assert code == 0
    assert [c for c in calls if c[0] == "_poly"] == [
        ("_poly", 2), ("_poly", 2), ("_poly", 1), ("_poly", 2)]
    assert ("_unit_w", 1) in calls and calls.count(("_unit_w", 1)) == 1
    # its spectrum takes the leaf block: no S of the point, so no _shape slot
    assert ("_shape_pass", 1) not in calls


# a long valid series: the sampled gate and the roots' arrays
LONG = (1.0, 0.1, 0.02, 0.005)
TS = np.linspace(0.0, 1.5, 9)


def _warm_model(m):
    x, rows = _points(m)[0], _points(m, 3, seed=5)
    shape_spectrum(m, x)  # the point's polar pass and w
    closed_fundamental_tensor(InducedNorm(m, BASES[m.d]), rows)  # the rows'


def _warm_norm(nm):
    riemann_fd(nm, _points(nm.foliation)[0])
    riemann_fd(nm, _points(nm.foliation, 3, seed=5))


def _warm_profile(p):
    _certified(p)  # before the report, which would leave the gate out
    is_minkowski(p)
    p.stationary_angles()


def _warm_dual(p):
    is_minkowski(p)
    p.evaluate(TS, 2)


# kind: (a new object, the calls that make it keep, the names it keeps)
KINDS = {
    "Profile": (lambda: Profile(2, BASES[2].cos_coeffs), _warm_profile,
                ("_validity", "_angles", "_roots0", "_roots1", "_roots2")),
    "long Profile": (lambda: Profile(2, LONG), _warm_profile,
                     ("_gate", "_validity", "_angles", "_roots0", "_roots1", "_roots2")),
    "SectorProfile": (lambda: _profiles(2)["SectorProfile"], is_minkowski, ("_validity",)),
    "DualProfile": (lambda: DualProfile(Profile(2, LONG), 0.8), _warm_dual,
                    ("_validity", "_solve")),
    "FoliationModel": (lambda: _fresh("cartan3", "Profile")[0], _warm_model,
                       ("_point", "_w", "_point_rows", "_w_rows", "_shape_rows")),
    "InducedNorm": (lambda: _fresh("cartan3", "DualProfile")[1], _warm_norm,
                    ("_qform", "_qform_rows")),
}


@pytest.mark.parametrize("kind,name", [(kind, name) for kind, (_, _, names)
                                       in KINDS.items() for name in names])
def test_kept_slots_are_no_state(kind, name):
    new, warm_up, _ = KINDS[kind]
    warm, cold = new(), new()
    warm_up(warm)
    assert name in vars(warm)
    assert warm == cold and hash(warm) == hash(cold)
    assert pickle.dumps(warm) == pickle.dumps(cold)
    for dup in (copy.copy(warm), copy.deepcopy(warm),
                pickle.loads(pickle.dumps(warm))):
        assert dup == cold and vars(dup).keys() == vars(cold).keys()


def test_kept_arrays_are_read_only():
    m, nm = _fresh("d2:8:3", "Profile")
    x = _points(m)[0]
    _, u, p, t = foliation._polar(m, x)
    kept = [u, unit_w(m, x), *(a for a in hessian._qform_tensors(nm, u, p, t)
                               if isinstance(a, np.ndarray))]
    assert len(kept) == 6
    shape_spectrum(m, x)
    assert "_shape" not in vars(m)  # a point's S is never formed
    f, dual = Profile(2, LONG), DualProfile(Profile(2, LONG))
    dual.evaluate(TS, 0)
    kept += [f.stationary_angles(), *(f._root_angles(i) for i in range(3)),
             vars(dual)["_solve"][1]]
    # rows are kept too, in their own slots: t_coord's r and t, unit_w and
    # normal_plane_basis' w of rows are read-only, as a point's are
    rows = _points(m, 4, seed=6)
    kept += [*t_coord(m, rows), unit_w(m, rows), normal_plane_basis(m, rows).w]
    closed_fundamental_tensor(nm, rows)
    kept += [vars(m)["_shape_rows"][1], *(a for a in hessian._qform_tensors(
        nm, *foliation._polar(m, rows)[1:]) if isinstance(a, np.ndarray))]
    for a in kept:
        assert isinstance(a, np.ndarray)
        with pytest.raises(ValueError, match="read-only"):
            a[...] = 0.0
    # what a call forms from kept arrays is its own, and writable
    for a in (normal_plane_basis(m, rows).v1, closed_fundamental_tensor(nm, rows),
              lift_to_nd(IsometryTriple(BASES[2], BASES[2], isometry.identity_map()),
                         m)(1.2 * rows)):
        a[...] = 0.0
