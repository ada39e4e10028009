"""Constructive machinery and exact oracles for powers of Hamiltonian cycles
in dense multipartite graphs."""

from .graphs import (
    Config,
    DegreeProfile,
    MultipartiteGraph,
    degree_profile,
    gen_extremal,
    gen_random,
    load_graph,
    reduce_parts,
    save_graph,
)
from .paths import is_path, is_walk, verify_ham_power_cycle

__all__ = [
    "Config",
    "DegreeProfile",
    "MultipartiteGraph",
    "degree_profile",
    "gen_extremal",
    "gen_random",
    "is_path",
    "is_walk",
    "load_graph",
    "reduce_parts",
    "save_graph",
    "verify_ham_power_cycle",
]

__version__ = "0.1.0"
