"""Quantum Fisher information for single-parameter qubit channels on noisy states.

The package cross-checks three views of the same quantity: the exact QFI
from an eigendecomposition of each 4x4 piece or Schur-Weyl block of the
output state (``blocks`` over ``fisher``), a purity-series expansion with
closed-form lowest orders (``series``), and full protocol simulations with
measurement statistics (``protocols``), all built on a Bloch-sphere channel
representation (``bloch``) and an n-qubit Pauli-string state engine
(``mstate``).  A batch CLI lives in ``noisyqfi.cli``.
"""

from .bloch import (
    BlochChannel,
    ChannelFamily,
    DomainError,
    SvdDecomp,
    Unitality,
    apply_bloch,
    builtin,
    classify_unitality,
    fd_derivative,
    svd3,
    validate,
)
from .blocks import exact_qfi, exact_qfis, spin_blocks
from .fisher import ProbModel, cfi, qfi_exact
from .mstate import (
    OrderedState,
    PauliStrings,
    XorLines,
    apply_channel,
    apply_channel_derivative,
    initial_state,
    initial_state_orders,
    prep_conjugate,
    to_dense,
)
from .protocols import (
    GainReport,
    MeasurementRecord,
    ProtocolSpec,
    build_state,
    compare,
    correlated,
    escher_phase_flip_demo,
    local_measurement_sim,
    nonunital_corr_equals_sqsc_check,
    protocol_qfi,
    sqsc,
)
from .series import (
    BranchError,
    QfiSeries,
    SldSeries,
    StateOrders,
    corr_bounds,
    corr_gain_ratio,
    corr_h2,
    corr_h3_h4,
    qfi_orders,
    sld_orders,
    sqsc_nonunital_const_h2,
    sqsc_nonunital_h0,
    sqsc_unital_h2,
    sqsc_unital_opt,
)

__version__ = "0.1.0"
