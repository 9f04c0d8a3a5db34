"""Every exported name resolves. perfbench's tracer wraps functions by each
module's `__all__`, so a stale export would drop out of the trace silently."""
import ast
import importlib
import importlib.util
import pkgutil
import re
from pathlib import Path

import pytest

import entkit

MODULES = ["entkit"] + [
    f"entkit.{m.name}" for m in pkgutil.iter_modules(entkit.__path__) if not m.name.startswith("_")
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []


def test_every_module_is_checked():
    assert {"entkit.schmidt", "entkit.states", "entkit.protocols", "entkit.cli"} <= set(MODULES)


# the package's public surface; an export added or removed shows in this list
PUBLIC_NAMES = [
    "Branch",
    "Classification",
    "CoefficientSolution",
    "ComparisonVerdict",
    "ConditionedUnitary",
    "DilutionReport",
    "DiscardSubsystem",
    "EntropyMatrix",
    "EntropyMonotonicityError",
    "EntropyVector",
    "GhzEprWitness",
    "Infeasible",
    "InternalError",
    "LocalMeasurement",
    "LocalUnitary",
    "MOrthogonalResult",
    "MregsBound",
    "Partition",
    "PartitionAsymmetryError",
    "ProtocolBuilder",
    "ProtocolError",
    "ProtocolRun",
    "PureState",
    "SchmidtDecomposition",
    "StepStats",
    "bell_projectors",
    "canonical_partitions",
    "cat_power",
    "cat_state",
    "cat_to_epr",
    "cat_yield",
    "chain_edges",
    "classify_states",
    "codeword5",
    "complete_graph_edges",
    "concentration_yield_distribution",
    "cut_spectra",
    "dilution_end_to_end",
    "dilution_input",
    "dilution_protocol",
    "dilution_retained_types",
    "egs_check",
    "embedded_cat",
    "entropy_vector",
    "epr_between",
    "epr_pair",
    "eprs_chain",
    "eprs_complete",
    "eprs_graph",
    "eprs_to_cat",
    "eprs_to_cat_input",
    "exact_entropy",
    "exact_entropy_ratio_r21",
    "exact_entropy_vector",
    "fidelity",
    "ghz_epr_witness",
    "hadamard_projectors",
    "is_m_orthogonal",
    "load_protocol",
    "load_state",
    "majorizes",
    "make_state",
    "mregs_lower_bound",
    "parse_named_state",
    "permute_parties",
    "r21_table",
    "random_pure_state",
    "random_unitary",
    "reduced_gram",
    "run",
    "save_protocol",
    "save_state",
    "schmidt_decompose",
    "shannon_entropy",
    "solve_coefficients",
    "tensor",
]


def test_the_public_surface_is_pinned():
    assert PUBLIC_NAMES == sorted(PUBLIC_NAMES)
    assert entkit.__all__ == PUBLIC_NAMES


ROOT = Path(__file__).resolve().parent.parent


def _perfbench_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_names_resolve():
    # the tracer builds each metric on `layer.name` keys; a deleted or
    # unexported name would leave its metric reading 0 or missing
    tracer = _perfbench_tracer()
    keys = {key for _, names in tracer.METRICS.values() for key in names} | set(tracer._OBSERVE)
    assert keys
    unresolved = []
    for key in sorted(keys):
        layer, name = key.split(".")
        module = importlib.import_module(f"entkit.{layer}")
        if not hasattr(module, name) or name not in module.__all__:
            unresolved.append(key)
    assert unresolved == []


EIGENSOLVERS = {"hermitian_eigensystem", "hermitian_eigenvalues", "_unchecked_eigenvalues"}
# the callers the README's eigensolver paragraph names; `linalg` is left out
# because its public solvers call `_unchecked_eigenvalues` themselves
README_EIGENSOLVER_CALLERS = {
    "entropy._cut_blocks",
    "protocols._contract_pure",
    "reducibility._lu_align",
    "reducibility._pair_transpose_spectra",
    "schmidt._decide_m_orthogonal",
    "schmidt.schmidt_decompose",
}


def _callers(names: set[str], match=lambda call: True) -> set[str]:
    """`module.function` of every function in `src/entkit` whose own body
    (nested functions excluded) calls one of `names`, in a call `match`
    accepts."""
    callers = set()

    class Visitor(ast.NodeVisitor):
        def __init__(self, module):
            self.module, self.stack = module, []

        def visit_FunctionDef(self, node):
            self.stack.append(node.name)
            self.generic_visit(node)
            self.stack.pop()

        def visit_Call(self, node):
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            if name in names and self.stack and match(node):
                callers.add(f"{self.module}.{self.stack[-1]}")
            self.generic_visit(node)

    for path in sorted((ROOT / "src" / "entkit").glob("*.py")):
        Visitor(path.stem).visit(ast.parse(path.read_text(encoding="utf-8")))
    return callers


def test_eigensolver_callers_are_the_readme_list():
    callers = _callers(EIGENSOLVERS)
    assert {c for c in callers if not c.startswith("linalg.")} == README_EIGENSOLVER_CALLERS
    assert {c for c in callers if c.startswith("linalg.")} == {"linalg.hermitian_eigenvalues"}
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    unnamed = [
        c for c in sorted(README_EIGENSOLVER_CALLERS)
        if not re.search(rf"`(\w+\.)?{re.escape(c.split('.')[1])}`", readme)
    ]
    assert unnamed == []


def test_partial_entropies_come_from_the_block_routine():
    # every partial entropy is a `shannon_entropy` of `_cut_blocks`' spectra;
    # `cat_yield` is the entropy of Schmidt weights, not of a cut spectrum
    assert _callers({"shannon_entropy"}) == {"entropy._cut_blocks", "schmidt.cat_yield"}


def test_only_run_tells_a_discard_from_an_operator_step():
    # every step carries a factor layout, so reading or updating a party's
    # factors needs no discard case; only the simulator's dispatch has one
    def names_discard(call):
        return any(getattr(node, "id", None) == "DiscardSubsystem" for node in ast.walk(call.args[1]))

    assert _callers({"isinstance"}, names_discard) == {"protocols.run"}
