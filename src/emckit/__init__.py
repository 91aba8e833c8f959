"""emckit: exact combinatorial verification workbench for extremal set
families in the almost-perfect-matching regime.

Subset families live on ground sets [n]; everything quantitative is exact
(int / fractions.Fraction).  The public surface re-exports the working core:
family primitives, matching numbers, shifting, the extremal candidates,
width/weight calculus, transversal constructions, claim audits, and the
small-scale extremal search.
"""

from .core import (
    ExactScalar,
    Family,
    KSet,
    binom,
    enumerate_ksets,
    mask_of,
)
from .matching import (
    BudgetExceeded,
    MatchingCertificate,
    matching_number,
)
from .shifting import compress_ij, is_shifted, shift_to_fixpoint
from .constructions import (
    build_A,
    build_B,
    crossover_n,
    extremal_sizes,
    prefix_size,
    trace_of,
)
from .weights import (
    WeightFrame,
    block_subset_count,
    candidate_count,
    claim3_bound,
    family_weight_identity,
    wA_of_M,
    weight_cd,
    weight_value,
    wg_envelope,
)
from .transversals import (
    BadPairStats,
    CyclicShift,
    ShapeProfile,
    Transversal,
    all_cyclic_collections,
    all_shift_collections,
    bad_pair_stats,
    cyclic_collection,
    full_transversals,
    product_inequality_check,
    q_family,
    shape_profile,
    shifts_of,
)
from .audit import (
    AuditReport,
    ParameterWindowError,
    audit_all,
    audit_claim2,
    audit_claim3,
    audit_claim4,
    audit_numeric_lemmas,
    make_report,
    max_window_n,
    min_window_n,
    overall_pass,
    product_inequality_report,
    require_window,
)
from .search import (
    find_G0,
    max_family_size,
    verify_conjecture,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
