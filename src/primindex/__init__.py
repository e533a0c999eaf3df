"""Primitivity, simplicity and non-filling indexes in finite-rank free
groups: labeled-graph machinery, Whitehead minimization, explicit blocking
and forcing words, and non-backtracking random-walk experiments."""

__version__ = "0.1.0"

from .words import CyclicWord, Word, cyclic_reduce, free_reduce, is_proper_power
from .graphs import AGraph, circle_graph, complete_to_cover, fold, trace_path
from .whitehead import WhiteheadAut, is_primitive, is_simple, minimize
from .index import (
    IndexFunctionTable,
    IndexReport,
    d_prim,
    d_simp,
    f_table,
    index_report,
)
from .blockers import blocking_word, forcing_word, witness_word
from .randomwalk import WalkConfig, experiment_dsimp, sample_word

__all__ = [
    "AGraph",
    "CyclicWord",
    "IndexFunctionTable",
    "IndexReport",
    "WalkConfig",
    "WhiteheadAut",
    "Word",
    "blocking_word",
    "circle_graph",
    "complete_to_cover",
    "cyclic_reduce",
    "d_prim",
    "d_simp",
    "experiment_dsimp",
    "f_table",
    "fold",
    "forcing_word",
    "free_reduce",
    "index_report",
    "is_primitive",
    "is_proper_power",
    "is_simple",
    "minimize",
    "sample_word",
    "trace_path",
    "witness_word",
]
