"""Exact L-space decisions for small Seifert fibered spaces, and certified
classification of the twist families of Dehn surgeries produced by seiferters.
"""

from .rationals import (INF, is_finite, make_rational, simplest_between,
                        sorted_triple, triple_le, triple_lt)
from .seifert import (Base, Classification, DegenerateEuler, SeifertForm, Tag,
                      UnsupportedFiberCount, classify, euler_number, h1_order,
                      mirror, normalize)
from .lspace import (FoliationWitness, IntervalKind, LSpaceVerdict, Reason,
                     ThirdSlotThreshold, decide, sufficient_conditions,
                     third_slot_threshold, witness_search)
from .twist import (FamilyMember, FamilyReport, PointVerdict, SeiferterData,
                    Segment, TailCertificate, TailStatus, classify_family,
                    evaluate_point, fiber_slope, h1_consistency, limit_space,
                    surgered_space, surgery_slope)
from .families import (ALL_N, FamilySpec, Guarantee, GuaranteeKind,
                       PreconditionFailed, TorusKnotDegenerate,
                       TwistedTorusKind, berge_sporadic, berge_type_vii_viii,
                       build_family, catalog, check_guarantee, check_reports,
                       distinctness_bound, eudave_munoz_rp2_family,
                       family_kinds, find_family, linking_guarantee,
                       satellite_guarantee, torus_pq_candidates,
                       tunnel2_family, twisted_torus_family,
                       unknot_seiferter_data, unknot_seiferter_family)

__version__ = "0.1.0"
