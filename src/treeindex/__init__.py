"""treeindex: spectral radius extremality toolkit for trees with
prescribed degree sequences.

The package provides immutable tree structures with the usual families
(`trees`), index/Perron-vector computation and valuation checks
(`spectral`), certified degree-preserving rearrangements (`transforms`),
and isomorph-free exhaustive search over degree-sequence classes
(`enumeration`).  `cli` exposes the same machinery as a command line.
"""

from .trees import (
    Branch,
    CanonicalForm,
    DegreeSequence,
    Tree,
    TreeError,
    arms,
    branch,
    branch_bud,
    branching_points,
    buds,
    canonical_form,
    canonical_order,
    is_caterpillar,
    is_semiregular,
    isomorphism_map,
    make_caterpillar,
    make_path,
    make_star,
    nonpendant_degree,
    nonpendant_vertices,
    proper_branches,
    semiregular_degree,
    tree_from_edges,
    tree_from_json,
    tree_to_dot,
    tree_to_json,
    trunk_path,
)
from .spectral import (
    ConvergenceError,
    PerronBound,
    SpectralResult,
    adjacency_matrix,
    caterpillar_symmetry_check,
    class_indices,
    caterpillar_trunk_residual,
    is_unimodal,
    pendant_minima_check,
    perron_bound_check,
    rayleigh_quotient,
    spectral_radius,
    symmetrize_caterpillar,
)
from .transforms import (
    ReductionError,
    ReductionSequence,
    ReductionStep,
    SpiralError,
    SpiralResult,
    SwitchCertificate,
    SwitchError,
    SwitchMove,
    TransformError,
    WitnessResult,
    WitnessStep,
    apply_switch,
    caterpillar_bound_witness,
    find_branch_reductions,
    inverse_move,
    minimal_branch_reduction,
    reduce_to_caterpillar,
    replay_inverse,
    spiral_rearrangement,
    switch_certificate,
    transport_valuation,
    validate_switch,
)
from .enumeration import (
    MinimizerObservations,
    SearchReport,
    TIED_MINIMIZER_CLASS,
    class_spectra,
    enumerate_semiregular,
    enumerate_trees,
    extremal_choice,
    extremal_report,
    find_maximizers,
    find_minimizers,
    free_trees,
    tied_minimizer_examples,
)

__version__ = "0.1.0"
