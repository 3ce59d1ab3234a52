"""Exact modular-data toolkit: cyclotomic arithmetic, Verlinde fusion,
admissibility checking, Galois symmetry, SL(2,Z) lifts and the rank-5
verification suite."""

from .cyclotomic import (
    Cyclotomic,
    InvalidOrderError,
    NotAUnitError,
    ONE,
    ZERO,
    get_order_cap,
    real_sign,
    set_order_cap,
    sqrt_int,
    zeta,
)
from .modular_data import (
    AdmissibilityReport,
    DerivedScalars,
    FusionRules,
    ModularDatum,
    SchemaViolation,
    cauchy_prime_support,
    check_admissible,
    check_balancing,
    check_twist_equation,
    derived_scalars,
    fs_exponent,
    fs_indicator,
    load,
    save,
    verlinde_fusion,
)
from .galois import (
    GaloisProfile,
    classify_dimensions,
    compute_profile,
    exclusion_predicates,
    galois_twist_symmetry,
    sign_function,
)
from .field_theory import (
    GroupShape,
    enumerate_levels,
    is_modularly_admissible,
    odd_prime_constraints,
    subfield_conductor,
)
from .sl2z_reps import (
    ModularRep,
    SpectrumRecord,
    inadmissible_psi,
    normalize,
    obstruction_120,
    signed_perm_match,
    spectra_connectivity,
    spectra_lookup,
)
from .catalog import pointed_zn, su2_4_family, su2_4_family_all, su2_odd_mod2
from .classifier import (
    grothendieck_equiv,
    integral_dimension_search,
    rank5_galois_cases,
    rank5_suite,
    vanishing_sum_check,
    vanishing_sum_scan,
)

__version__ = "0.1.0"
