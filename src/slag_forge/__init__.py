"""Taub-NUT and Atiyah-Hitchin hyperkahler geometry in holomorphic coordinates,
moment maps, and cohomogeneity-one special Lagrangian curve tracing."""

from .atiyah_hitchin import (AHGeomState, AHParams, AHSphericalPoint, ah_coeffs,
                             ah_from_spherical, ah_kahler_potential, ah_metric_UZ,
                             ah_pi_xpm, ah_u_coordinate)
from .elliptic import (EllipticData, elliptic_data, elliptic_E, elliptic_K,
                       eta1_quadrature, jacobi_sn, quad_adaptive, weierstrass_p)
from .errors import (ChartError, ContourCollisionError, ConvergenceError,
                     DegenerateError, DomainError, EmptyDomainError,
                     PoleError, SlagForgeError)
from .moment_maps import (ActionSpec, moment_ah_so2, moment_tn_so2, moment_tn_u1,
                          so3_cotangent_moment, verify_hamiltonian_ah, verify_hamiltonian_tn)
from .multiplets import (O2Multiplet, O4Multiplet, ah_In_contour_oracle, o2_eval,
                         o2_roots, o4_from_roots, tn_Fxx_contour_oracle)
from .slag_curves import (CurveTrace, ImplicitGrid, ah_condition, ah_cos2psi_level,
                          tn_so2_curve, tn_u1_case1, tn_u1_case2, trace_zero_set,
                          verify_slag)
from .taub_nut import (MetricBlock, TNHoloPoint, TNParams, TNSphericalPoint,
                       tn_calabi_yau_residual, tn_chart_spherical_to_holo,
                       tn_metric_holo, tn_metric_spherical, tn_solve_x)

__version__ = "0.1.0"
