"""wirelab: depth-2 boolean circuit transforms, operator coding, and
wire-count bounds, with exhaustive verification at desk scale."""

from ._kernels import BACKEND, EXHAUSTIVE_CAP, ExhaustiveCapError
from .gf2 import Gf2Matrix, Gf2Vector, matvec
from .circuit import (
    Depth2Circuit,
    GeneralCircuit,
    LinearDepth2Circuit,
    NotLinearError,
    OperatorTable,
    TruthTable,
    collapse,
    equivalent,
    is_linear_gate,
    weak_counterexample,
)
from .transforms import (
    LinearizationReport,
    cap_fanin,
    linearize,
    normalize_output_xor,
    remove_direct_wires,
)
from .compress import OperatorEncoding, bit_length, decode, decode_matrix, deserialize, encode, serialize
from .bounds import (
    linear_circuit_lower_bound,
    log2_count_upper,
    log2_num_operators,
    min_wires_lower_bound,
)

__version__ = "0.1.0"

__all__ = [
    "BACKEND",
    "Depth2Circuit",
    "EXHAUSTIVE_CAP",
    "ExhaustiveCapError",
    "GeneralCircuit",
    "Gf2Matrix",
    "Gf2Vector",
    "LinearDepth2Circuit",
    "LinearizationReport",
    "NotLinearError",
    "OperatorEncoding",
    "OperatorTable",
    "TruthTable",
    "bit_length",
    "cap_fanin",
    "collapse",
    "decode",
    "decode_matrix",
    "deserialize",
    "encode",
    "equivalent",
    "is_linear_gate",
    "linear_circuit_lower_bound",
    "linearize",
    "log2_count_upper",
    "log2_num_operators",
    "matvec",
    "min_wires_lower_bound",
    "normalize_output_xor",
    "remove_direct_wires",
    "serialize",
    "weak_counterexample",
]
