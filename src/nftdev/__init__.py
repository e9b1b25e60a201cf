"""nftdev: Hamming-deviation analysis for nondeterministic finite-state
transducers.

The library decides whether the Hamming distance between the input and
output of an NFT is bounded over all accepted pairs, computes the exact
supremum with a witness run when it is, reduces two-transducer comparison
problems to the single-transducer form, and generates the classic
hardness-gadget instance families with known ground truth.
"""

from .core import (
    INF,
    CnfFormula,
    Digraph,
    ExtendedNat,
    Infinity,
    Nft,
    NftStats,
    Run,
    Transition,
    hamming_distance,
    run_words,
    stats,
)
from .engine import (
    DEFAULT_MAX_CONFIGS,
    Bounds,
    DeviationResult,
    StateBudgetExceeded,
    Verdict,
    analyze_deviation,
    exact,
    is_bounded,
    shift_assignment,
    threshold,
)
from .gadgets import (
    GadgetInstance,
    GroundTruth,
    gen_3sat,
    gen_family,
    gen_reach_bounded,
    gen_reach_threshold,
    gen_sat_unsat,
    reachable,
)
from .oracle import (
    BruteForceResult,
    OracleScaleExceeded,
    brute_force_deviation,
    domains_equal_upto,
    sat_brute_force,
)
from .reductions import compare, comparison_to_deviation, deviation_to_comparison
from .textio import ParseError, parse_cnf, parse_digraph, parse_nft, repr_size, serialize_nft
from .transform import add_eps_self_loops, atomize, concat, is_trim, trim, union

__version__ = "0.1.0"

__all__ = [
    "INF",
    "Bounds",
    "BruteForceResult",
    "CnfFormula",
    "DEFAULT_MAX_CONFIGS",
    "DeviationResult",
    "Digraph",
    "ExtendedNat",
    "GadgetInstance",
    "GroundTruth",
    "Infinity",
    "Nft",
    "NftStats",
    "OracleScaleExceeded",
    "ParseError",
    "Run",
    "StateBudgetExceeded",
    "Transition",
    "Verdict",
    "add_eps_self_loops",
    "analyze_deviation",
    "atomize",
    "brute_force_deviation",
    "compare",
    "comparison_to_deviation",
    "concat",
    "deviation_to_comparison",
    "domains_equal_upto",
    "exact",
    "gen_3sat",
    "gen_family",
    "gen_reach_bounded",
    "gen_reach_threshold",
    "gen_sat_unsat",
    "hamming_distance",
    "is_bounded",
    "is_trim",
    "parse_cnf",
    "parse_digraph",
    "parse_nft",
    "reachable",
    "repr_size",
    "run_words",
    "sat_brute_force",
    "serialize_nft",
    "shift_assignment",
    "stats",
    "threshold",
    "trim",
    "union",
]
