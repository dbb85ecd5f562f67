"""Analysis toolkit for planar periodic bar-and-joint frameworks.

``perimax.relax`` is the function ``relax``, imported under its module's
name; reach the module with ``importlib.import_module("perimax.relax")``.
"""

from .core import (
    FrameworkError,
    NumericalError,
    PeriodicFramework,
    Sublattice,
    canonical_edge,
    framework_from_dict,
    framework_to_dict,
    parse_framework,
    serialize_framework,
)
from .topology import (
    FaceComplex,
    check_noncrossing,
    corner_count,
    render_svg,
    trace_faces,
)
from .rigidity import (
    SpectralReport,
    StressVector,
    check_periodic_stress,
    count_identity_check,
    equilibrium_matrix,
    flex_space,
    gauge_reduced_kernel,
    invariant_equilibrium_stress_space,
    periodic_stress_space,
    rigidity_matrix,
)
from .lifting import (
    EdgeFold,
    PeriodicLifting,
    classify_folds,
    export_terrain,
    lifting_from_stress,
    stress_from_lifting,
    vertex_heights,
)
from .pseudotri import (
    EdgeCandidate,
    PPTCertificate,
    certify_ppt,
    find_rigidifying_edges,
    insert_edge_orbit,
    pointedness_margin,
)
from .relax import (
    UltrarigidityReport,
    copy_stress,
    relax,
    stress_persists,
    sublattices_of_index,
    sublattices_up_to,
    ultrarigidity_probe,
)
from .deform import (
    Configuration,
    DeformationPath,
    auxetic_tangent_check,
    continue_path,
    contraction_check,
    expansive_check,
    flex_tangent,
    gram_derivative,
)
from .fixtures import FIXTURES, fixture

__version__ = "0.1.0"
