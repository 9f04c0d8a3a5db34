"""Exact and asymptotic entanglement invariants of multipartite pure states.

The package splits by what changes hands:

- `states`: dense pure states over named parties, partitions, reductions.
- `entropy`: partial-entropy vectors, exact rational entropies, ratios.
- `builders`: EPR graphs, cat states, the five-qubit codeword, named lookup.
- `schmidt`: decompositions, the m-orthogonality test, concentration and
  dilution combinatorics.
- `protocols`: branch-exact simulation of local operations with broadcast
  classical messages, plus the shipped conversion protocols.
- `reducibility`: majorization, convertibility classification, the
  two-cats-versus-three-pairs witness.
- `mregs`: exact linear algebra over entropy vectors, feasibility
  certificates, generating-set lower bounds.
"""
import types

from .builders import (
    cat_power,
    cat_state,
    chain_edges,
    codeword5,
    complete_graph_edges,
    embedded_cat,
    epr_between,
    epr_pair,
    eprs_chain,
    eprs_complete,
    eprs_graph,
    parse_named_state,
)
from .entropy import (
    EntropyVector,
    PartitionAsymmetryError,
    cut_spectra,
    entropy_vector,
    exact_entropy,
    exact_entropy_ratio_r21,
    exact_entropy_vector,
    shannon_entropy,
)
from .errors import InternalError
from .mregs import (
    CoefficientSolution,
    EntropyMatrix,
    Infeasible,
    MregsBound,
    egs_check,
    mregs_lower_bound,
    r21_table,
    solve_coefficients,
)
from .protocols import (
    Branch,
    ConditionedUnitary,
    DiscardSubsystem,
    DilutionReport,
    EntropyMonotonicityError,
    LocalMeasurement,
    LocalUnitary,
    ProtocolBuilder,
    ProtocolError,
    ProtocolRun,
    StepStats,
    bell_projectors,
    cat_to_epr,
    dilution_end_to_end,
    dilution_input,
    dilution_protocol,
    eprs_to_cat,
    eprs_to_cat_input,
    hadamard_projectors,
    load_protocol,
    run,
    save_protocol,
)
from .reducibility import (
    Classification,
    ComparisonVerdict,
    GhzEprWitness,
    classify_states,
    ghz_epr_witness,
    majorizes,
)
from .schmidt import (
    MOrthogonalResult,
    SchmidtDecomposition,
    cat_yield,
    concentration_yield_distribution,
    dilution_retained_types,
    is_m_orthogonal,
    schmidt_decompose,
)
from .states import (
    Partition,
    PureState,
    canonical_partitions,
    fidelity,
    load_state,
    make_state,
    permute_parties,
    random_pure_state,
    random_unitary,
    reduced_gram,
    save_state,
    tensor,
)

__version__ = "0.1.0"

# every name imported above, and nothing else
__all__ = sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, types.ModuleType)
)
