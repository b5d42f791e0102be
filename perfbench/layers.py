"""The layer functions the traced run wraps, as plain names.

Each span is named ``<module>.<function>`` after the glauberlab module that
defines the function, and is wrapped at every module (or, for the zoo
suites, dict) that callers look it up in. BENCHMARK.json names one
``.self_s`` metric per span and a ``.calls`` metric for those in CALLS.
"""

SPANS = {
    "graphs.tree_excess_all": ("graphs",),
    "graphs.alpha_weights_all": ("graphs", "blocks"),
    "graphs.max_path_alpha_weight": ("graphs",),
    "graphs.read_edge_list": ("cli", "graphs"),
    "graphs.generate_er": ("cli", "graphs"),
    "blocks.classify": ("blocks",),
    "blocks.build_skeleton": ("blocks",),
    "blocks.build_blocks": ("blocks",),
    "blocks.validate_partition": ("cli",),
    "dynamics.run_chain": ("cli",),
    "dynamics.coalescence_time": ("cli",),
    "dynamics.run_block_chain": ("dynamics",),
    "dynamics.block_step": ("dynamics",),
    "models.local_conditional": ("dynamics",),
    "models.initial_configuration": ("cli",),
    "models.greedy_coloring": ("cli",),
    "rng.sample_index": ("dynamics", "trees", "exact"),
    "trees.build_tree_tables": ("dynamics", "exact"),
    "trees.tree_sample": ("dynamics",),
    "exact.skeleton_joint": ("dynamics",),
    "exact.enumerate_states": ("cli",),
    "exact.transition_matrix": ("cli",),
    "exact.relaxation_time": ("cli", "exact"),
    "exact.mixing_time": ("cli", "exact"),
    "exact.sandwich_check": ("cli",),
    "cli.main": ("cli",),
}

# The zoo suites run hundreds of tiny chains through the same exact
# functions. Their spans are opaque (nothing inside them is recorded), so
# the exact.* figures describe the one large chain of the exact command.
SUITES = ("sandwich", "cheeger", "canonical", "decay", "skeleton-joint",
          "block-composition")

CALLS = ("graphs.alpha_weights_all", "dynamics.block_step",
         "models.local_conditional", "trees.build_tree_tables",
         "exact.skeleton_joint", "exact.relaxation_time", "exact.mixing_time")


def span_names():
    return list(SPANS) + [f"zoo.run_suite.{s}" for s in SUITES]
