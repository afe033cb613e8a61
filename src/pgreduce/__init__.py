"""Parity game preorders, equivalences, quotients and a solving pipeline."""

from .forcing import attractor, diverges, forces, steps
from .game import (
    ParityGame,
    PgSolverFormatError,
    Player,
    WinningRegions,
    disjoint_union,
    parse_pgsolver,
    random_game,
    reward_leq,
    serialize_pgsolver,
    to_dot,
)
from .lattice import check_lattice, compute_relations
from .quotient import (
    EQUIVALENCES,
    QuotientResult,
    find_isomorphism,
    quotient_direct_sim,
    quotient_equivalent,
    quotient_governed_bisim,
    quotient_gstut,
    quotient_strong_bisim,
    quotient_stut,
    serialize_class_map,
    verify_preservation,
)
from .relations import (
    Partition,
    direct_sim,
    equivalence_from_preorder,
    governed_bisim,
    gstut_bisim,
    strong_bisim,
    strong_direct_sim,
    stut_bisim,
)
from .simgames import (
    CHECK,
    DAGGER,
    build_delayed_sim_arena,
    build_direct_sim_arena,
    build_governed_bisim_arena,
    build_gstut_arena,
    coincidence_check,
    delayed_sim,
    delayed_sim_fixpoint,
    direct_sim_via_game,
    gamma,
    gamma_even,
    gamma_odd,
    governed_bisim_via_game,
    gstut_via_game,
    wf_rank_check,
)
from .solver import (
    Arena,
    ArenaPlayer,
    buchi_rank,
    solve_buchi,
    solve_zielonka,
)

__version__ = "0.1.0"
