"""Information-gain/disturbance tradeoff for quantum-decoy tamper detection.

Construct eavesdropping attacks on an n-dimensional channel, evaluate the
eavesdropper's estimation fidelity G and the receiver's detection probability
D exactly (a closed-form O(K n^2) evaluator, checked against the definition
sums and the linear functionals) and empirically (Monte Carlo), and certify the
tightness of the bound D >= 1/2 - (1/(2n))(sqrt(G) + sqrt((n-1)(1-G)))^2.
"""

from .linalg import (
    DEFAULT_TOL,
    herm_eig,
    inv_sqrt_psd,
    is_hermitian,
    partial_trace,
    psd_check,
)
from .choi import (
    ChoiState,
    apply_channel,
    choi_of_kraus,
    is_cp,
    is_tp,
    sandwich_identity_residual,
)
from .ensembles import (
    Ensemble,
    decoy_ket,
    pairing_ensemble,
)
from .attacks import (
    GeneralizedMeasurement,
    diagonal_attack,
    from_kraus,
    identity_attack,
    optimal_attack,
    parse_descriptor,
    probabilistic_attack,
    projective_attack,
    random_attack,
)
from .metrics import (
    banaszek_bound,
    beta_vector,
    decoy_amplitudes,
    estimation_fidelity,
    estimation_fidelity_functional,
    induced_fidelity,
    induced_fidelity_closed,
    induced_fidelity_functional,
    pound_matrix,
    spectral_quantities,
)
from .tradeoff import (
    BoundViolation,
    TradeoffPoint,
    attack_point,
    disturbance_bound,
    optimize_attack,
    saturation_gap,
    sweep_random,
)
from .protocol import SimReport, run_protocol

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_TOL",
    "partial_trace",
    "herm_eig",
    "psd_check",
    "inv_sqrt_psd",
    "is_hermitian",
    "ChoiState",
    "choi_of_kraus",
    "apply_channel",
    "sandwich_identity_residual",
    "is_cp",
    "is_tp",
    "Ensemble",
    "decoy_ket",
    "pairing_ensemble",
    "GeneralizedMeasurement",
    "from_kraus",
    "optimal_attack",
    "projective_attack",
    "identity_attack",
    "probabilistic_attack",
    "random_attack",
    "diagonal_attack",
    "parse_descriptor",
    "estimation_fidelity",
    "estimation_fidelity_functional",
    "decoy_amplitudes",
    "induced_fidelity",
    "induced_fidelity_closed",
    "induced_fidelity_functional",
    "spectral_quantities",
    "banaszek_bound",
    "pound_matrix",
    "beta_vector",
    "TradeoffPoint",
    "BoundViolation",
    "disturbance_bound",
    "attack_point",
    "saturation_gap",
    "sweep_random",
    "optimize_attack",
    "SimReport",
    "run_protocol",
]
