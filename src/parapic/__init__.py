"""parapic: exact Picard-group invariants of parahoric bundle moduli.

The package computes, in exact arithmetic, the charge lattice attached
to a Galois cover datum with parahoric level structure, the divisor
lower bound c_Delta, and descent certificates obtained by degenerating
twisted conformal blocks into factors of known rank.

The names below are those the command line, the scripts and the README
use; import anything else from its module.
"""
from __future__ import annotations

from .covers import (
    C2_GROUP,
    C3_GROUP,
    IDENTITY,
    S3_GROUP,
    TRIVIAL_GROUP,
    RamificationVector,
    element_name,
    enumerate_tuples,
    genus_riemann_hurwitz,
    group_from_name,
    is_connected_genus0,
    parse_tuple,
)
from .descent import CGReport, certify_descent, compute_cG
from .dynkin import AffineType, parse_affine_type
from .errors import DomainError, ParapicError, ParseError, UnknownRankError
from .factorization import (
    CASE3_LITERAL,
    CASE4_LITERAL,
    BaseCase,
    s3_reduce,
    vacuum_weight,
)
from .picard import (
    GroupDatum,
    PointDatum,
    bundle_to_json,
    c_delta,
    cdelta_bundle,
    datum_from_json,
    is_pic_delta,
    load_bundle,
    load_datum,
    pic_delta_rank,
)
from .verlinde import base_case_rank, rank_closed_form_A, s3_level1_rank

__version__ = "0.1.0"
