"""Gibbs sampling on sparse random graphs: structural decomposition,
exact small-chain analysis, and coupling experiments."""

from .blocks import (BlockParams, BlockPartition, Block, GoodBadLabeling,
                     Piece, bad_classes, build_blocks, build_skeleton,
                     choose_params, classify, decompose,
                     has_applicable_rule, partition_from_json_dict,
                     partition_to_json_dict, read_partition,
                     validate_partition, write_partition)
from .dynamics import (ChainState, coalescence_time, contraction_probe,
                       coupled_step, maximal_coupling_entries,
                       read_checkpoint, resume_chain, run_block_chain,
                       run_chain, sample_maximal_coupling, block_step,
                       visit_counts, write_checkpoint)
from .errors import (BoundaryInfeasibleError, BudgetExceededError,
                     CheegerHypothesisError, DegenerateChainError,
                     HorizonExceededError, LabelingInconsistencyError,
                     NoFeasibleStateError, NonUniqueAttachmentError,
                     PaletteExhaustedError, PeelingError, SkeletonBoundError)
from .exact import (CanonicalBound, CheegerBound, DecayCheck, ExactChain,
                    SkeletonJoint, block_composition_check,
                    canonical_path_bound, cheeger_bound,
                    coloring_q_threshold, compose_block_law,
                    detailed_balance_gap, enumerate_states,
                    format_chain_dump, hardcore_activity_threshold,
                    is_irreducible, law_tv, mixing_time, path_density,
                    psi_weight, relaxation_time, sandwich_check,
                    skeleton_joint, soft_norm_threshold, spectrum,
                    transition_matrix, tree_decay_check)
from .graphs import (AlphaWeight, Boundaries, Graph, HypothesisParams,
                     HypothesisReport, alpha_weight, alpha_weights_all,
                     ball, bfs_distances, boundaries, check_hypothesis,
                     expansion_probe, exterior_boundary, format_edge_list,
                     generate_er, log_radius, max_path_alpha_weight,
                     parse_edge_list,
                     read_edge_list, tree_excess, tree_excess_all,
                     write_edge_list)
from .models import (HeatBath, SpinModel, activity_free, coloring_model,
                     fit_degree_cap, format_configuration, greedy_coloring,
                     hardcore_model, initial_configuration, is_feasible,
                     local_conditional, log_weight, model_from_json_dict,
                     model_norm, model_to_json_dict, parse_configuration,
                     read_configuration, read_model, soft_model,
                     write_configuration, write_model)
from .records import BoundRecord, CheckRecord, Report
from .rng import derive_seed, make_rng, sample_index
from .trees import (build_tree_tables, tree_law, tree_root_law,
                    tree_sample, tree_sample_many, batched_root_marginals)
from .zoo import (SUITES, connected_graphs, decay_panel, model_grid,
                  partitioned_cases, random_tree, regular_graphs,
                  run_suite, skeleton_block_cases)

__version__ = "0.1.0"
