"""octad: exact composition algebras, integral Z-structures and cubic
Jordan algebras over commutative rings, with strict polynomial-law
identity checking and exhaustive censuses."""

from .scalars import (
    GF,
    NOT_A_UNIT,
    QQ,
    ZZ,
    DualNumbers,
    ProductRing,
    Scalar,
    Zmod,
    product_ring,
)
from .quadforms import QuadraticForm, block_det
from .conic import ConicAlgebra, cartan_schouten, quadratic, split_etale
from .identities import Verdict, strict_identity_check, sampled_identity_check
from .cayley import (
    cayley_dickson,
    composition_defect,
    iterated_cayley_dickson,
    octonions,
    quat_rotate,
    quaternions,
    sedenion_zero_divisor_witness,
    sedenions,
)
from .zorn import count_field, presentation_suite, zorn_algebra
from .zorders import ZLattice, dickson_coxeter, gaussian, hurwitz, kirmse
from .cubic import (
    CubicData,
    build_cubic,
    hat_of_conic,
    hat_pointed,
    k_cubic,
    kk_cubic,
    split_cubic_etale,
    validate_axioms,
)
from .her3 import Gamma
from .tits import char3_nilpotence_demo, mat3, split_albert

__version__ = "0.1.0"
