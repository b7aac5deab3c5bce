"""Nonconforming n-rectangle finite elements for the tri-harmonic problem.

Two H3-nonconforming families (Morley-type and Adini-type) on structured
axis-aligned meshes in any dimension, with exact-rational element
construction, sparse assembly of the piecewise sixth-order bilinear form,
manufactured-solution convergence studies, and verification suites for the
elements' unisolvence, weak-continuity, and patch-test properties.
"""

from .analysis import ErrorReport, broken_norms, convergence_study, solve_case
from .assembly import apply_dirichlet, assemble, gauss_rule, load_vector
from .cases import (
    CASE_NAMES, ManufacturedCase, case_lshape2d, case_smooth2d, case_smooth3d,
    get_case, polynomial_case,
)
from .interpolation import (
    boundary_values_from_case, canonical_interpolate, quasi_interpolate,
)
from .mesh import BoxDomain, StructuredMesh, lshape_mesh, uniform_mesh
from .multigrid import solve_cg
from .reference import (
    ADINI_CLASSIC, ADINI_TYPE, MORLEY, Q1, Family, build_dual_basis,
    family_from_name, partial_adini,
)
from .solver import SolveReport, SolverError, solve_direct
from .space import FeSpace, build_space
from .verify import SUITES, VerificationReport, run_suite

__version__ = "1.0.0"

__all__ = [
    "ADINI_CLASSIC", "ADINI_TYPE", "MORLEY", "Q1",
    "BoxDomain", "CASE_NAMES", "ErrorReport", "Family", "FeSpace",
    "ManufacturedCase", "SUITES", "SolveReport", "SolverError",
    "StructuredMesh", "VerificationReport",
    "apply_dirichlet", "assemble", "boundary_values_from_case",
    "broken_norms", "build_dual_basis", "build_space",
    "canonical_interpolate", "case_lshape2d", "case_smooth2d",
    "case_smooth3d", "convergence_study", "family_from_name", "gauss_rule",
    "get_case", "load_vector", "lshape_mesh", "partial_adini", "polynomial_case",
    "quasi_interpolate", "run_suite", "solve_case", "solve_cg",
    "solve_direct", "uniform_mesh",
]
