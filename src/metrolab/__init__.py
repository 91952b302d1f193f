"""Fixed-photon-number bosonic metrology on truncated Fock spaces.

Subpackages split along the workflow: `fock` (bases and state
containers), `operators` (mode and angular-momentum operators, exact
unitaries), `states` (probe factories), `metrology` (variance, Fisher
information, precision bounds), `optimize` (generator-weight
optimization and the loss channel), `cli` (scenario runner).
"""

from .fock import (
    FockBasis,
    MixedState,
    PureState,
    build_basis,
    fidelity,
    partial_trace,
)
from .operators import (
    HermitianOp,
    PairAxis,
    UnitaryOp,
    annihilation,
    number_op,
    quadrature_p,
    rotation_unitary,
    schwinger_j,
    spin_squeeze_unitary,
    weighted_number,
)
from .states import (
    coherent_cutoff,
    coherent_truncated,
    correlated_three_mode,
    cv_cat,
    drop_reference,
    general_probe,
    noon,
    rotated_fock,
    two_mode_fixed_n,
    with_reference,
)
from .metrology import (
    CramerRaoBound,
    Povm,
    QFIReport,
    expectation,
    fisher_information,
    jn_variance_closed_form,
    jy_variance_closed_form,
    optimal_povm,
    qfi_mixed,
    qfi_pure,
    variance,
)
from .optimize import (
    WeightResult,
    ZetaResult,
    loss_channel,
    lossy_probe,
    number_covariance,
    optimal_weights,
    optimal_zeta,
    sweep_qfi_vs_zeta,
)

__version__ = "0.1.0"

__all__ = [
    "FockBasis",
    "MixedState",
    "PureState",
    "build_basis",
    "fidelity",
    "partial_trace",
    "HermitianOp",
    "PairAxis",
    "UnitaryOp",
    "annihilation",
    "number_op",
    "quadrature_p",
    "rotation_unitary",
    "schwinger_j",
    "spin_squeeze_unitary",
    "weighted_number",
    "coherent_cutoff",
    "coherent_truncated",
    "correlated_three_mode",
    "cv_cat",
    "drop_reference",
    "general_probe",
    "noon",
    "rotated_fock",
    "two_mode_fixed_n",
    "with_reference",
    "CramerRaoBound",
    "Povm",
    "QFIReport",
    "expectation",
    "fisher_information",
    "jn_variance_closed_form",
    "jy_variance_closed_form",
    "optimal_povm",
    "qfi_mixed",
    "qfi_pure",
    "variance",
    "WeightResult",
    "ZetaResult",
    "loss_channel",
    "lossy_probe",
    "number_covariance",
    "optimal_weights",
    "optimal_zeta",
    "sweep_qfi_vs_zeta",
    "__version__",
]
