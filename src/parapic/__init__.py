"""parapic: exact Picard-group invariants of parahoric bundle moduli.

The package computes, in exact arithmetic, the charge lattice attached
to a Galois cover datum with parahoric level structure, the divisor
lower bound c_Delta, and descent certificates obtained by degenerating
twisted conformal blocks into factors of known rank.
"""
from __future__ import annotations

from .covers import (
    C2_GROUP,
    C3_GROUP,
    C3_PLUS,
    ELEMENTS,
    IDENTITY,
    S3_GROUP,
    TRIVIAL_GROUP,
    CoverShape,
    FiniteGroup,
    RamificationVector,
    class_preserving_identity_tuple,
    compose,
    conjugacy_class,
    conjugate,
    element_name,
    enumerate_tuples,
    equivalent_cover_data,
    genus_riemann_hurwitz,
    group_from_name,
    gsd,
    inverse,
    is_connected_genus0,
    monodromy_partition_gsd3,
    parse_element,
    parse_tuple,
    perm_order,
    product_identity_check,
    sign,
    subgroup_generated,
)
from .descent import (
    CGReport,
    DescentCertificate,
    best_lcmai_bound,
    certify_descent,
    compute_cG,
    iwahori_theorem,
)
from .dynkin import (
    AffineType,
    FiniteType,
    VertexInvolution,
    affine_cartan_matrix,
    all_affine_types,
    dual_involution,
    dual_kac_labels,
    parse_affine_type,
    twisted_type,
)
from .errors import (
    BoundUnavailableError,
    DomainError,
    InconsistentRamificationError,
    InternalInconsistencyError,
    InvalidTypeError,
    NoCoverError,
    NotDominantError,
    NotInPicDeltaError,
    PairingError,
    ParapicError,
    ParseError,
    UnknownRankError,
)
from .factorization import (
    CASE3_LITERAL,
    CASE4_LITERAL,
    BaseCase,
    DecompositionWitness,
    degenerate_gsd3,
    lcmai_bound,
    pq_sets,
    pq_sets_for_points,
    s3_parity_check,
    s3_reduce,
    vacuum_weight,
    weight_from_dict,
)
from .picard import (
    GroupDatum,
    PointDatum,
    WeightBundle,
    bundle_from_json,
    bundle_to_json,
    c_delta,
    cdelta_bundle,
    central_charge,
    datum_from_json,
    datum_to_json,
    is_dominant,
    is_pic_delta,
    load_bundle,
    load_datum,
    pic_basis,
    pic_delta_rank,
    vacuum_bundle,
    validate_bundle,
)
from .verlinde import (
    ExactScalar,
    RankResult,
    base_case_rank,
    rank_closed_form_A,
    rank_lower_bound,
    s3_level1_rank,
)

__version__ = "0.1.0"
