"""Minkowski norms induced by isoparametric foliations of the sphere.

The package builds norms F = r sqrt(2 f(t)) from a dihedral profile f and a
foliation leaf parameter t, and provides the numerics around them:
validity, planar Legendre duality, fundamental-tensor frame formulas,
Hessian curvature, and the ODE system governing Hessian isometries between
two such norms.
"""

from .profile import (Profile, SectorProfile, ValidityReport, dihedral_fold,
                      from_phi, is_minkowski, load_profile,
                      profile_from_json_dict, round_profile, sampled_profile,
                      save_profile)
from .planar import (DualProfile, PlanarNorm, dual_profile, fundamental_tensor,
                     indicatrix_point, legendre_map, theta_legendre)
from .foliation import (DEFAULT_FOCAL_GUARD, FocalProximityError,
                        FoliationModel, cartan3, d1, d2, focal_dimensions,
                        multiplicities, normal_geodesic, normal_plane_basis,
                        parse_model, random_leaf_points, shape_spectrum,
                        t_coord, unit_w)
from .hessian import (InducedNorm, cartan_flat_candidate, closed_frame_matrix,
                      energy, fd_fundamental_tensor, fd_indicatrix_laplacian_t,
                      fd_indicatrix_operators, frame_basis, frame_components,
                      indicatrix_grad_t_norm, indicatrix_laplacian_t,
                      riemann_fd)
from .isometry import (Decomposition, IsometryTriple, Sector, ThetaMap,
                       build_h_from_theta, bump_profile, check_d_property,
                       check_hessian_isometry, classify_sectors,
                       glue_construct, identity_map, integrate_branch,
                       legendre_map_tag, lift_to_nd, load_triple,
                       ode_residuals, planar_lift_map, quadratic_and_roots,
                       save_triple, theta_jet, triple_from_json_dict,
                       triple_to_json_dict)

__version__ = "0.1.0"

__all__ = [
    "Profile", "SectorProfile", "ValidityReport", "dihedral_fold", "from_phi",
    "is_minkowski", "load_profile", "profile_from_json_dict", "round_profile",
    "sampled_profile", "save_profile",
    "DualProfile", "PlanarNorm", "dual_profile", "fundamental_tensor",
    "indicatrix_point", "legendre_map", "theta_legendre",
    "DEFAULT_FOCAL_GUARD", "FocalProximityError", "FoliationModel", "cartan3",
    "d1", "d2", "focal_dimensions", "multiplicities", "normal_geodesic",
    "normal_plane_basis", "parse_model", "random_leaf_points",
    "shape_spectrum", "t_coord", "unit_w",
    "InducedNorm", "cartan_flat_candidate", "closed_frame_matrix", "energy",
    "fd_fundamental_tensor", "fd_indicatrix_laplacian_t",
    "fd_indicatrix_operators", "frame_basis", "frame_components",
    "indicatrix_grad_t_norm", "indicatrix_laplacian_t", "riemann_fd",
    "Decomposition", "IsometryTriple", "Sector", "ThetaMap",
    "build_h_from_theta", "bump_profile", "check_d_property",
    "check_hessian_isometry", "classify_sectors", "glue_construct",
    "identity_map", "integrate_branch", "legendre_map_tag", "lift_to_nd",
    "load_triple", "ode_residuals", "planar_lift_map", "quadratic_and_roots",
    "save_triple", "theta_jet", "triple_from_json_dict",
    "triple_to_json_dict",
    "__version__",
]
