"""Exact combinatorial engine for equivariant extension algebras.

The pipeline: a combinatorial datum (toric fan or symmetric-variety
data) produces a finite face poset, a catalog of labels (orbit,
character), and a sheaf of graded algebras H on the poset; the extension
algebra is the algebra of global sections of H, with Čech cohomology,
a vanishing report, and independent oracles for verification.
"""

from .algebra import (
    TwoGroupModule,
    nabla,
    twist_factor,
    twisted_tensor,
    twisted_tensor_relations,
)
from .extalg import ExtAlgebra, concentration_check, ext_algebra, ext_module, vanishing_report
from .faces import (
    FacePoint,
    KData,
    SymmetricDatum,
    build_faces,
    closed_face,
    downward_closed_families,
    family_name,
    g_stable_open,
)
from .fans import Fan, toric_datum, toric_isotropy
from .hsheaf import BlockSupport, HSheaf, build_H, support_sets
from .isotropy import (
    DatumError,
    IsotropyFamily,
    Label,
    LabelCatalog,
    build_catalog,
    component_group,
    delta_prime,
    monodromy,
)
from .posets import (
    FiniteSpace,
    GradedSheaf,
    GradedSpace,
    SpaceError,
    cech_cohomology,
    global_sections,
    validate_intersection_axiom,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
