"""perronlab: a desk-scale numerical laboratory for the peripheral spectra
of positive matrices on finite coordinate Banach lattices."""

from .lattice import (
    LatticeVector,
    NormTag,
    SpaceModel,
    dominates,
    entrywise_sup,
    independence_preserved,
    is_lattice_homomorphism,
    lattice_power,
    modulus,
    vec,
)
from .operators import (
    OperatorMatrix,
    ShiftMultSpec,
    cesaro_lower_bound,
    cesaro_mean,
    direct_sum,
    identity,
    is_markov,
    is_positive,
    op,
    op_norm,
    power,
    power_sums,
    resolvent,
    restrict_to_ideal,
    shift_mult_block,
    spectral_radius,
    symbol,
    symbol_power,
)
from .schemes import (
    CoeffStream,
    SchemeFamily,
    SchemeKind,
    Verdict,
    apply_weight,
    builtin_scheme,
    check_ws1,
    check_ws2,
    check_ws3,
    pole_order_at,
    ws_bounded_probe,
)
from .spectral import (
    CyclicResult,
    EigenPair,
    SpectralReport,
    analyze,
    daec_check,
    daec_check_adjoint,
    dim_estimate_check,
    dim_estimate_check_in_ideal,
    eigen,
    is_cyclic,
    mean_ergodic_projection,
    peripheral_spectrum,
    rational_angle,
    rational_peripheral_point_spectrum,
    resolvent_growth_ratio,
)
from .fixedspace import (
    FixedSpaceHandle,
    am_identity_check,
    extended_markov_operator,
    f_modulus,
    fixed_space_handle,
    is_fixed_space_sublattice,
    no_supremum_witness,
    sup_in_fixed_space,
)
from .gallery import CaseReport, case_names, run_case
from .sampling import (
    plant_jordan,
    random_markov_reducible,
    random_nonneg,
    random_nonneg_gapped,
    random_stochastic,
)
from .suites import run_suite, suite_names

__version__ = "0.1.0"
