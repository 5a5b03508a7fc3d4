"""uqtchan: classify qubit channels by whether the two-qubit state they
produce from a pure entangled input stays useful for universal quantum
teleportation (maximal average fidelity above 2/3 with zero fidelity
deviation)."""

from .channels import (
    ChannelValidationError,
    QubitChannel,
    apply,
    apply_to_bob,
    channel_from_json,
    channel_to_json,
    choi,
    orthogonalize,
    report,
    rotate_kraus,
    validate,
)
from .explorer import (
    SearchReport,
    SweepSpec,
    ThresholdResult,
    analyze,
    find_threshold,
    run_sweep,
    search_uqt,
    sweep_to_csv,
)
from .families import (
    FamilySpec,
    dephasing,
    gadc,
    lambda_star_nu,
    lambda_tilde_nu,
    lambda_u4,
    list_families,
    noise_channel,
    pauli_mixture,
    uqt_nonunital_rank3,
    uqt_nonunital_rank4,
    uqt_unital_for_pure,
    werner,
)
from .oracle import (
    NumericMoments,
    QuadratureSpec,
    canonicalize,
    numeric_moments,
    teleport_output,
)
from .states import (
    TeleportProfile,
    TwoQubitState,
    bell_state,
    concurrence,
    from_density,
    from_ket,
    profile,
    pure_state,
    pure_state_from_concurrence,
)

__all__ = [
    "ChannelValidationError", "QubitChannel", "apply", "apply_to_bob",
    "channel_from_json", "channel_to_json", "choi", "orthogonalize", "report",
    "rotate_kraus", "validate",
    "QuadratureSpec", "SearchReport", "SweepSpec", "ThresholdResult", "analyze",
    "find_threshold", "run_sweep", "search_uqt", "sweep_to_csv",
    "FamilySpec", "dephasing", "gadc", "lambda_star_nu", "lambda_tilde_nu",
    "lambda_u4", "list_families", "noise_channel", "pauli_mixture",
    "uqt_nonunital_rank3", "uqt_nonunital_rank4", "uqt_unital_for_pure", "werner",
    "NumericMoments", "canonicalize", "numeric_moments", "teleport_output",
    "TeleportProfile", "TwoQubitState", "bell_state", "concurrence",
    "from_density", "from_ket", "profile", "pure_state", "pure_state_from_concurrence",
]

__version__ = "0.1.0"
