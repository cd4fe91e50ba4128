"""Modular obstruction calculus for regular induced subgraphs.

Core pipeline: parity partition as the base congruence, trace tables over a
retained core, exact next-bit obstruction classes, and an absorption engine
that emits either a verified deletion certificate or a verified parity-cut
obstruction, with a reservoir simulator alongside.  The brute-force oracles
are imported from their submodule, ``modcert.oracle``, so that importing
the package does not load them.
"""

from .absorb import (
    AbsorptionProblem,
    Certificate,
    DeletionCertificate,
    ParityCut,
    all_tail_identity_check,
    basis_tail_check,
    certificate_from_json,
    certificate_to_json,
    pair_trace_sufficiency,
    rank_rich,
    self_layer_check,
    solve_core_correction,
    solve_defect,
    twin_tail_decompose,
    verify_certificate,
    verify_deletion_certificate,
    verify_parity_cut,
)
from .errors import InternalInvariantError, ParseError
from .gf2 import BitMatrix, BitVector, Dual, Solution, mat_vec, rank, solve_or_dual
from .graph import Graph, induced_degrees, is_regular, load_graph
from .parity import parity_partition, two_modular_part, verify_even_partition
from .reservoir import AvailabilityReport, ReservoirSpec, estimate_availability
from .traces import (
    TraceTable,
    complement_difference,
    compute_traces,
    neighborhood_diversity,
    next_bit_obstruction,
    oriented_orbit_form,
    pair_trace_graph,
    tail_degrees,
)
from .witness import (
    ModularWitness,
    Regular,
    TooLarge,
    TopBitLabel,
    affine_lift_check,
    is_q_modular,
    terminal_check,
    top_bit_label,
)

__version__ = "0.1.0"
