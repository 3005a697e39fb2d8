"""Discrete affine minimal surfaces with indefinite metric.

Quad nets built by discrete Lelieuvre integration of harmonic co-normal
fields, together with their affine normals, cubic forms, compatibility
equations, area functional and bilinear-patch tessellation.
"""

from .compatibility import (
    AffineMap,
    CompatibilityResiduals,
    FundamentalData,
    affine_equivalence,
    canonical_seed,
    compatibility_residuals,
    extract_fundamental_data,
    reconstruct,
)
from .conormal import (
    ConormalField,
    SeparableConormalSpec,
    face_area_density,
    from_separable,
    helicoid,
    hyperbolic_paraboloid,
    improper_sphere,
    minimal_cubic,
    validate,
)
from .errors import (
    AffminError,
    DegenerateQuadrangle,
    DomainMismatch,
    DomainTooSmall,
    IllDefinedForm,
    IncompatibleData,
    NonConvexFace,
    NonPositiveVolume,
    NotEquivalent,
    NotHarmonic,
    SeedDeterminantMismatch,
)
from .forms import (
    CubicForm,
    FormDerivatives,
    a2_b1_closed_form,
    cubic_coefficients,
    normal_derivative_residuals,
    structural_residuals,
)
from .geometry import (
    FaceVolumes,
    affine_normal,
    asymptotic_certificate,
    duality_certificate,
    face_volumes,
    planarity_and_saddle,
    recover_conormal,
)
from .grids import (
    FaceGrid,
    GridDomain,
    UEdgeGrid,
    VEdgeGrid,
    VertexGrid,
    d1,
    d2,
    d11,
    d12,
    d22,
)
from .lelieuvre import (
    Immersion,
    integrate,
    lelieuvre_edges,
    path_independence_residual,
    verify_lelieuvre,
)
from .mesh import (
    ObjCounts,
    export_surface_obj,
    patch_area_check,
    patch_point,
)
from .variational import (
    affine_area,
    area_gradient,
    criticality_certificate,
    fd_gradient_check,
)

__version__ = "0.1.0"
