"""Exact energy barriers for hypergraph product codes on desk-scale instances.

The package builds CSS product codes from two classical parity-check
matrices, finds exact energy barriers by exhaustive bottleneck path search
(per CSS sector, modulo the stabilizer group), and mechanically checks the
structural claims about those barriers (stabilizer bounds, canonical
operator barriers, the product barrier formula) on small concrete instances.
"""

from .errors import (
    CapExceeded,
    DimensionMismatch,
    EmptyMatrix,
    HgpBarrierError,
    InconsistentDegrees,
    IndexOutOfRange,
    NoLogicals,
    NoTarget,
    NotACodeword,
    NotAStabilizer,
    NotElementary,
    OutsideNormalizer,
    ParseError,
    ShapeMismatch,
    TrivialOperator,
    WitnessError,
)
from .f2core import BitMatrix, BitVec, kernel_basis, rank, rref
from .codes import (
    ClassicalCode,
    CodeParams,
    emit_alist,
    emit_dense,
    hamming_7_4,
    open_repetition,
    parse_alist,
    parse_auto,
    parse_dense,
    random_ldpc,
    ring_repetition,
)
from .hgp import HgpCode, PauliVec, build_hgp, css_check, hgp_parameters, qubit_index
from .logicals import (
    CanonicalOp,
    PauliClass,
    canonical_x_basis,
    canonical_z_basis,
    classify,
    compose_canonical,
    elementary_leg,
    enumerate_x_logicals,
    enumerate_z_logicals,
)
from .barrier import (
    BarrierResult,
    MinimaxTable,
    PathRecord,
    bottleneck_search,
    classical_barrier,
    classical_table,
    normalizer_barrier,
    pauli_barrier_general,
    pauli_table,
    quantum_barrier,
    sector_table,
    stabilizer_path,
    sweep_path_for_canonical,
    validate_path,
)
from .deform import (
    DeformSpec,
    deform_path,
    deform_pauli,
    find_activating_codeword,
    weight_reduction_gap,
)
from .verify import VerifyReport, run_all, run_claim

__version__ = "0.1.0"
