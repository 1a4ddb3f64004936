"""procshap: Shapley-value attribution for logical properties of process
trees mined from event logs.

Pipeline: parse an XES log, discover a block-structured process tree,
treat every tree node as a player in a boolean cooperative game whose
value is a property verdict (satisfiability, liveness, safety) of the
coalition-reduced model, estimate Shapley values exactly or by sampling,
and classify nodes as critical, neutral, redundant or harmful.
"""

from .diagnostics import (
    DiagnosticsConfig,
    classify,
    jaccard,
    noise_correlation,
    quality_perspectives,
    summarize_attributions,
    top_k,
)
from .event_log import (
    DirectlyFollowsGraph,
    EventLog,
    XesParseError,
    build_dfg,
    parse_xes,
)
from .logic_encoder import (
    ProverConfig,
    PropositionalSpec,
    SZSStatus,
    emit_tptp,
    encode,
    run_prover,
)
from .miner import MinerConfig, discover, filter_dfg
from .oracle import (
    Property,
    PropertySpec,
    TauMode,
    ValueCache,
    evaluate,
    evaluate_masks,
    tree_game,
)
from .process_tree import (
    Coalition,
    NodeId,
    Op,
    ProcessTree,
    activity,
    assign_node_ids,
    canonical_mask,
    export_dot,
    iter_nodes,
    loop,
    node_count,
    par,
    seq,
    substitute,
    tau,
    tree_from_text,
    tree_to_text,
    xor,
)
from .reports import AttributionReport, RunConfig, emit_report, run_matrix
from .shapley import (
    ConvergenceReport,
    Game,
    ShapleyEstimate,
    TreeGame,
    convergence_delta_max,
    exact_shapley,
    mc_permutation_shapley,
    rooted_shapley,
    rs_subset_shapley,
    tree_shapley,
)

__version__ = "0.1.0"
