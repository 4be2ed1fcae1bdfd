"""Symbolic program trees, hyper values and composable search flows.

Programs are mutable symbolic trees; replacing fixed parts with hyper values
turns a program into a conditional search space.  Search algorithms see only
an abstract view of the space (decision points with ranges) and propose
abstract child programs (trees of numeric decisions) that materialize back
into concrete programs for evaluation.
"""

from . import errors
from .algorithms import Exhaustive, RandomSearch, RegularizedEvolution, SearchAlgorithm, mutate
from .decisions import (
    DNA,
    CategoricalPoint,
    Choice,
    DecisionSpec,
    FloatPoint,
    IntPoint,
    abstract_search_space,
    condition_spec,
    decode_dna,
    encode_dna,
    enumerate_dnas,
    filter_spec,
    merge_dna,
    minimal_dna,
    random_dna,
    split_dna,
    validate_dna,
)
from .eager import EagerContext, eager_floatv, eager_intv, eager_oneof, eager_problem, run_eager
from .errors import SymsearchError
from .flows import (
    Feedback,
    FlowReport,
    SearchLoop,
    TrialRecord,
    run_factorized,
    run_hybrid,
    run_joint,
    run_separate,
    sample,
    top5_average,
)
from .hyper import (
    Categorical,
    FloatRange,
    INFINITE,
    IntRange,
    floatv,
    intv,
    is_deterministic,
    manyof,
    oneof,
    permutate,
    space_size,
)
from .materialize import infer_dna, materialize, materialize_partial
from .oracles import (
    SyntheticNASOracle,
    TableOracle,
    build_nasbench_space,
    dump_table,
    eval_oracle,
)
from .paths import KeyPath
from .schema import (
    ANY_OBJECT,
    Param,
    TypeDef,
    TypeRegistry,
)
from .serialization import deserialize, isomorphic, serialize, spec_to_json_obj
from .values import (
    DELETE,
    Delete,
    HyperValue,
    Insert,
    Mapping,
    ObjectNode,
    Primitive,
    Sequence,
    Set,
    SymbolicValue,
    clone,
    equal,
    get,
    has,
    parent_of,
    path_of,
    query,
    rebind,
    to_symbolic,
    validate_tree,
    walk,
)

__all__ = [
    "errors",
    "Exhaustive", "RandomSearch", "RegularizedEvolution", "SearchAlgorithm", "mutate",
    "DNA", "CategoricalPoint", "Choice", "DecisionSpec", "FloatPoint", "IntPoint",
    "abstract_search_space", "condition_spec", "decode_dna", "encode_dna", "enumerate_dnas",
    "filter_spec", "isomorphic", "merge_dna", "minimal_dna", "random_dna", "spec_to_json_obj",
    "split_dna", "validate_dna",
    "EagerContext", "eager_floatv", "eager_intv", "eager_oneof", "eager_problem", "run_eager",
    "SymsearchError",
    "Feedback", "FlowReport", "SearchLoop", "TrialRecord", "run_factorized", "run_hybrid",
    "run_joint", "run_separate", "sample", "top5_average",
    "Categorical", "FloatRange", "INFINITE", "IntRange", "floatv", "intv", "is_deterministic",
    "manyof", "oneof", "permutate", "space_size",
    "infer_dna", "materialize", "materialize_partial",
    "SyntheticNASOracle", "TableOracle", "build_nasbench_space", "dump_table", "eval_oracle",
    "KeyPath",
    "ANY_OBJECT", "Param", "TypeDef", "TypeRegistry",
    "deserialize", "serialize",
    "DELETE", "Delete", "HyperValue", "Insert", "Mapping", "ObjectNode", "Primitive",
    "Sequence", "Set", "SymbolicValue", "clone", "equal", "get", "has", "parent_of", "path_of",
    "query", "rebind", "to_symbolic", "validate_tree", "walk",
]
