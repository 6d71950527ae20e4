"""Local graph clustering for densely inter-connected cluster pairs.

Two local algorithms built on virtual graph covers: a Pagerank-push pipeline
for undirected graphs (find L, R with a dense cut between them) and a
volume-biased evolving-set sampler for digraphs (find L, R with edges flowing
from L to R). Ships with synthetic generators, evaluation metrics, exact
brute-force oracles, and a CLI.
"""

from .bench import run_table1, run_table2
from .cover import (
    conductance_in_cover,
    cover_degree,
    cover_rows,
    cover_vertex,
    to_cluster_pair,
    total_cover_volume,
)
from .esp import (
    DirectedClusterPair,
    EspState,
    esp_step,
    evo_cut_directed,
    generate_sample,
    steps_for_target_flow,
)
from .fileio import (
    ParseError,
    graph_fingerprint,
    load_edge_list,
    load_flow_matrix,
    load_labels,
    load_names,
    write_edge_list,
    write_labels,
)
from .generators import CbmPlusSpec, CbmSpec, SbmSpec, gen_cbm, gen_cbm_plus, gen_sbm
from .graph import Graph, bipartiteness, conductance, cut_imbalance, flow_ratio
from .metrics import ari, misclassified_ratio, pair_labeling
from .oracle import (
    brute_force_best_pair,
    brute_force_min_conductance,
    exact_esp_kernel,
    exact_pagerank,
    ls_curve,
)
from .pagerank import (
    AprState,
    ClusterPair,
    approximate_pagerank_dc,
    loc_bipart_dc,
    simplify,
    sweep_cut,
    theorem1_beta_hat,
)
from .results import RunResult, build_run_result, run_result_json

__version__ = "0.1.0"
