"""Exact computation in self-similar groups defined by a prime p and a
monic invertible polynomial over F_p: word arithmetic under the wreath
recursion, decision of the word problem by contraction, finite level
quotients as permutation groups, boundary-ray dynamics, and verification
drivers for the structural properties of these groups.
"""

from .core import (
    BVec,
    GroupSpec,
    dihedral_witness,
    divisible_by_x_plus_1,
    is_torsion,
    make_spec,
    parse_spec_file,
)
from .elements import (
    AbelImage,
    Element,
    ExceedsBound,
    Finite,
    ThetaClass,
    WreathForm,
    abelianize,
    act_on_vertex,
    b_length,
    b_letter,
    basis_gens,
    commutator,
    conjugate,
    equal_elements,
    find_cd,
    gen_a,
    gen_b,
    generating_set,
    identity,
    invert,
    is_trivial,
    multiply,
    order_probe,
    parse_word,
    phi_lift,
    power,
    root_exponent,
    section_at,
    theta,
    theta_stabilize,
    word_str,
    wreath,
)
from .boundary import (
    Ray,
    SchreierBall,
    act_ray,
    all_ones,
    dot_export,
    hq_properness_certificate,
    make_ray,
    ray_str,
    schreier_ball,
    z_action,
    zeta,
    zeta_inv,
)
from .permq import (
    LevelPerm,
    PivotBasis,
    SubgroupDesc,
    branch_pair_check,
    chain_from,
    density_check,
    derived_chain,
    group_chain,
    level_perm,
    stab_in_derived_check,
)
from .recsys import (
    RecEquation,
    RecSystem,
    build_conjugator,
    conjugation_disagreement_level,
    rec_level_perm,
)
from .analysis import (
    ClassifyReport,
    HqDesc,
    LambdaForm,
    classify,
    count_finite_index_maximals,
    hq,
    hq_stab_gens,
    identity_suite,
    lambda_form,
    line_screen,
    reduction_trace,
    subdirect_lift,
)

__version__ = "0.1.0"
