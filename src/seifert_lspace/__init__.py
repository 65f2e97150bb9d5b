"""Exact L-space decisions for small Seifert fibered spaces, and certified
classification of the twist families of Dehn surgeries produced by seiferters.
"""

from .rationals import INF, is_finite, simplest_between
from .seifert import (Base, Classification, DegenerateEuler, SeifertForm, Tag,
                      UnsupportedFiberCount, classify, h1_order, mirror, normalize)
from .lspace import (FoliationWitness, IntervalKind, LSpaceVerdict, Reason,
                     ThirdSlotThreshold, decide, third_slot_threshold)
from .twist import (FamilyMember, FamilyReport, Piece, PointVerdict, Run,
                    SeiferterData, classify_family, evaluate_point,
                    h1_consistency, limit_space, surgered_space, surgery_slope)
from .families import (ALL_N, FamilySpec, Guarantee, GuaranteeKind,
                       PreconditionFailed, TorusKnotDegenerate, build_family,
                       catalog, check_guarantee, check_reports,
                       distinctness_bound, eudave_munoz_rp2_family,
                       family_kinds, find_family, linking_guarantee,
                       satellite_guarantee, torus_pq_candidates,
                       unknot_seiferter_data, unknot_seiferter_family)

__version__ = "0.1.0"
