"""Exact arithmetic on bounded complexes of free modules over Z/m and
its square-zero extension Z/m[e] (e*e = 0): graded traces, chain
homotopies, short exact sequences, trace additivity and its violations,
and graded determinant lines.

The headline fact the package makes checkable: for an endomorphism
triple (u, v, w) of a short exact sequence of complexes whose three
comparison squares — the two visible ones and the connecting one —
commute up to homotopy, the graded-trace defect Tr(v) - Tr(u) - Tr(w)
vanishes over every reduced ring; one square-zero element is enough to
break it, and `build_counterexample` exhibits the smallest break.
`search_violation` sweeps for violations at desk scale and `certify`
re-derives any hit from scratch.
"""

from .complexes import (
    ChainMap,
    ChainMapSpace,
    HomComplex,
    Homotopy,
    PerfectComplex,
    Validation,
    direct_sum,
    mapping_cone,
)
from .detline import (
    BridgeReport,
    GradedLine,
    NotAutomorphismError,
    det_line_of,
    det_of_automorphism,
    det_trace_bridge,
    koszul_swap,
    tensor,
    unit_line,
)
from .generate import (
    assemble_block_endo,
    random_chain_endo,
    random_chain_map,
    random_cocycle,
    random_complex,
    random_element,
    random_extension,
    random_homotopy,
    random_matrix,
    random_strict_triple,
)
from .homotopy import (
    NullHomotopyProblem,
    are_homotopic,
    find_null_homotopy,
    graded_trace,
    perturb,
)
from .linalg import LinearSolver, Matrix, ShapeError, SolutionReport
from .rings import RingElem, RingMismatchError, RingSpec
from .search import (
    CeilingExceededError,
    SearchConfig,
    SearchOutcome,
    build_counterexample,
    certify,
    iter_all_complexes,
    search_violation,
    wrap_instance,
)
from .ses import (
    AdditivityReport,
    CocycleSpace,
    EndoTriple,
    ShortExactSequence,
    SquareStatus,
    check_triple,
    connecting_map,
    connecting_square,
    extension_twist,
    find_section,
    make_extension,
    validate_ses,
)
from .textio import (
    Document,
    ParseError,
    complex_file,
    format_complex,
    format_matrix,
    parse_document,
    parse_element,
    parse_matrix,
    parse_ring,
    ses_file,
)

__version__ = "0.1.0"

__all__ = [
    "AdditivityReport",
    "BridgeReport",
    "CeilingExceededError",
    "ChainMap",
    "ChainMapSpace",
    "CocycleSpace",
    "Document",
    "EndoTriple",
    "GradedLine",
    "HomComplex",
    "Homotopy",
    "LinearSolver",
    "Matrix",
    "NotAutomorphismError",
    "NullHomotopyProblem",
    "ParseError",
    "PerfectComplex",
    "RingElem",
    "RingMismatchError",
    "RingSpec",
    "SearchConfig",
    "SearchOutcome",
    "ShapeError",
    "ShortExactSequence",
    "SolutionReport",
    "SquareStatus",
    "Validation",
    "are_homotopic",
    "assemble_block_endo",
    "build_counterexample",
    "certify",
    "check_triple",
    "complex_file",
    "connecting_map",
    "connecting_square",
    "det_line_of",
    "det_of_automorphism",
    "det_trace_bridge",
    "direct_sum",
    "extension_twist",
    "find_null_homotopy",
    "find_section",
    "format_complex",
    "format_matrix",
    "graded_trace",
    "iter_all_complexes",
    "koszul_swap",
    "make_extension",
    "mapping_cone",
    "parse_document",
    "parse_element",
    "parse_matrix",
    "parse_ring",
    "perturb",
    "random_chain_endo",
    "random_chain_map",
    "random_cocycle",
    "random_complex",
    "random_element",
    "random_extension",
    "random_homotopy",
    "random_matrix",
    "random_strict_triple",
    "search_violation",
    "ses_file",
    "tensor",
    "unit_line",
    "validate_ses",
    "wrap_instance",
]
