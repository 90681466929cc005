"""Heat-map-guided TSP heuristic toolkit.

Pipeline: per-instance surrogate-loss optimization produces an edge heat
map, edge elimination prunes it to per-city candidate sets, and a
best-first k-opt local search decodes tours; a run ends once a 1-tree
lower bound proves its best tour optimal. Exact small-instance oracles back
the verification story.
"""

from .bounds import one_tree_bound
from .candidates import (
    candidate_lists,
    edge_set,
    overlap_coefficient,
    top_m_filter,
)
from .bench import (
    BenchResult,
    held_karp_exact,
    solve_pipeline,
    coverage_report,
    emit_tour_svg,
    tour_edges,
)
from .generator import (
    LossBreakdown,
    NumericError,
    TrainConfig,
    TrainTrace,
    column_softmax,
    indicator_to_heatmap,
    init_logits,
    loss_gradient,
    optimize_heatmap,
    surrogate_loss,
)
from .instances import (
    Instance,
    Tour,
    TsplibParseError,
    distance_matrix,
    generate_random,
    parse_tsplib,
    tour_length,
)
from .search import (
    PRESETS,
    KOptAction,
    SearchParams,
    SearchStats,
    expand_node,
    nn_two_opt_baseline,
    preset_for,
    random_tour,
    run_search,
    two_opt_improve,
    update_heatmap,
)

__version__ = "0.1.0"
