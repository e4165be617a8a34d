"""Numerical verification lab for scale-adapted maximal and singular operators.

Discretization: the half-open box [0, side)^dim split into 2^level cells
per axis; functions are cellwise-constant, so every integral is an exact
finite sum and every operator bound can be checked cell by cell.
"""

from .critical import (
    AdmissibilityReport,
    CoveringReport,
    RhoSpec,
    ShenResult,
    audit_admissibility,
    critical_covering,
    eval_rho,
    growth_factor,
    rho_values,
    shen_rho,
)
from .corona import (
    ClaimReport,
    ClassifiedLevels,
    LevelDecomposition,
    MixedDyadicReport,
    MixedGlobalReport,
    PrincipalForest,
    build_forests,
    claim_audits,
    classify,
    cz_on_cube,
    level_decomposition,
    mixed_verify_dyadic,
    mixed_verify_global,
    principal_select,
    tree_a1,
)
from .experiments import (
    EXPERIMENT_KINDS,
    Report,
    UsageError,
    default_config,
    run_experiment,
    run_many,
    write_report,
)
from .extrapolation import (
    CoifmanReport,
    K0TooSmallError,
    KernelConditionReport,
    MixedTReport,
    RdFAuditReport,
    RdFState,
    SCZOKernel,
    audit_kernel_conditions,
    coifman_check,
    estimate_K0,
    ladder_exponent,
    mixed_for_T,
    rdf_audit,
    rdf_iterate,
    s_operator,
    sczo_apply,
)
from .grid import (
    ALL_CELL_ALIGNED,
    BoxSums,
    Cube,
    CubeFamily,
    DYADIC_GRID_OF,
    Domain,
    DomainMismatchError,
    GridFunction,
    InvalidWeightError,
    SumOverflowError,
    dyadic_average_tree,
    dyadic_averages,
    dyadic_sum_pyramid,
    integrate,
    load_grid_function,
    require_weight,
    save_grid_function,
    weighted_measure,
)
from .lorentz import (
    InterpolationReport,
    RearrangementTable,
    WeightedMeasure,
    distribution,
    interpolation_audit,
    lorentz_norm,
    rearrangement,
    t_grid_sup,
    weak_norm,
)
from .maximal import (
    GridShiftSet,
    LocGlobReport,
    ShiftDominationReport,
    default_family,
    loc_glob_split,
    loc_glob_split_stack,
    m_dyadic,
    m_localized,
    m_rho_sigma,
    m_rho_sigma_stack,
    shifted_grid_domination_audit,
)
from .suite import (
    ANALYTIC_RHO,
    GenerationError,
    SuiteBundle,
    WeightPair,
    domain_from_json,
    generate_suite,
    make_function,
    make_weight,
    rho_from_json,
    standard_suite_spec,
)
from .weights import (
    EpsilonForm,
    RH_LADDER,
    THETA_LADDER,
    WeightCharacteristic,
    ainf_epsilon,
    ainf_epsilon_form,
    ap_characteristic,
    ap_ladder,
    characteristics,
    factor_build,
    rh_characteristic,
)

__version__ = "0.1.0"
