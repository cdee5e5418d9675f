"""Minkowski norms induced by isoparametric foliations of the sphere.

The package builds norms F = r sqrt(2 f(t)) from a dihedral profile f and a
foliation leaf parameter t, and provides the numerics around them:
validity, planar Legendre duality, fundamental-tensor frame formulas,
Hessian curvature, and the ODE system governing Hessian isometries between
two such norms.

`import isonorm` loads no submodule: each name below comes from its home
module on first access, so a caller pays only for the modules it uses.
"""

from importlib import import_module

__version__ = "0.1.0"

# each public name, by the module that defines it
_HOME = {name: module for module, names in (
    ("profile", "DEFAULT_FOCAL_GUARD Profile SectorProfile ValidityReport "
     "dihedral_fold from_phi is_minkowski load_profile profile_from_json_dict "
     "sampled_profile save_profile"),
    ("planar", "DualProfile PlanarNorm dual_profile fundamental_tensor "
     "indicatrix_point legendre_map theta_legendre"),
    ("foliation", "FocalProximityError FoliationModel cartan3 d1 d2 "
     "focal_dimensions multiplicities normal_plane_basis parse_model "
     "random_leaf_points shape_spectrum t_coord unit_w"),
    ("hessian", "InducedNorm closed_frame_matrix energy fd_fundamental_tensor "
     "fd_indicatrix_laplacian_t fd_indicatrix_operators frame_basis "
     "indicatrix_grad_t_norm indicatrix_laplacian_t riemann_fd"),
    ("isometry", "Decomposition IsometryTriple Sector ThetaMap "
     "build_h_from_theta bump_profile check_d_property check_hessian_isometry "
     "classify_sectors glue_construct identity_map integrate_branch "
     "legendre_map_tag lift_to_nd load_triple ode_residuals planar_lift_map "
     "quadratic_and_roots save_triple theta_jet triple_from_json_dict "
     "triple_to_json_dict"),
) for name in names.split()}

__all__ = [*_HOME, "__version__"]


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{_HOME[name]}", __name__), name)


def __dir__():
    return sorted({*globals(), *__all__})
