"""Chen-Ruan Betti numbers of quasitoric orbifolds from combinatorial
models, combinatorial crepant blowups, and exact verification that the
Betti numbers survive them."""

from .blowup import (
    Blowup,
    BlowupError,
    McKayReport,
    Subdivision,
    TriangulationCheck,
    blow_up,
    blow_up_table,
    check_triangulation_identity,
    crepant_candidates,
    identity_failures,
    induced_triangulation,
    is_crepant,
    make_blowup_spec,
    mckay_check,
    passes,
    run_checks,
    star_subdivide,
)
from .cohomology import (
    CrReport,
    check_age_partition,
    check_torus_stratification,
    cr_report,
    e_torus,
    pp_cr_direct,
    pp_cr_via_closures,
    pp_cr_via_strata,
)
from .ehrhart import (
    LatticeSimplex,
    count_from_ages,
    dilate_counts,
    ehrhart_numerator,
    face_simplex,
    numerator_from_counts,
)
from .exact import Poly
from .intlat import (
    IntMat,
    IntVec,
    RankDeficientError,
    det,
    is_primitive,
    lattice_index,
    triangular_form,
)
from .model import (
    Face,
    Model,
    ModelValidationError,
    apply_unimodular,
    f_vector,
    faces,
    generate_test_models,
    generate_test_tables,
    h_vector,
    load_model,
    make_model,
    model_to_dict,
    model_to_json,
    parse_model,
    positively_omnioriented,
    random_unimodular,
    relabel_facets,
    subfaces,
)
from .sectors import (
    BoxElement,
    LocalGroup,
    LocalGroupTable,
    NonIntegralAgeError,
    box_by_exhaustion,
    box_of_columns,
)

__version__ = "0.1.0"
