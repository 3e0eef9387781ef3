"""Driven harmonic oscillator propagators, Floquet analysis, and the
iterative diagonalization engine for quasi-periodic perturbations."""

from .core_fock import (
    OscillatorParams,
    TruncatedOperator,
    Truncation,
    matrix_exp,
)
from .drive_model import (
    DriveSpec,
    FloquetScalars,
    MuNuSigma,
    eval_drive,
    floquet_scalar_derivs,
    floquet_scalars,
    hamiltonian_at,
    is_resonant_period,
    mu_nu_sigma,
    phi12,
    psi,
    split_elapsed,
)
from .commutators import (
    higher_order_bound_check,
    sup_xn_norm,
    xn_operator,
    xn_operator_via_floquet,
)
from .errors import (
    DomainError,
    FloquetLabError,
    InvalidIntervalError,
    InvalidTruncationError,
    NotConvergedError,
    NumericError,
    ResonanceError,
    ResonantTimeError,
    SmallDenominatorError,
)
from .floquet import (
    Classification,
    StabilityReport,
    TransitionBoundReport,
    build_HF,
    build_SF,
    build_UF,
    classify_monodromy,
    energy_bound_constant,
    stability_scan,
    transition_bound_check,
)
from .kam import (
    BlockPerturbation,
    FloquetMatrixSpace,
    KamConfig,
    KamResult,
    KamState,
    eps_v_norm,
    kam_iterate,
    level_hamiltonian,
    load_problem,
    random_perturbation,
    reconstruct_propagator,
    weighted_block_norm,
)
from .oracle import PeriodStepper, evolve_state, integrate
from .propagator import (
    propagator_factored,
    propagator_single_exp,
    split_forward,
    split_inverse,
)

__version__ = "0.1.0"
