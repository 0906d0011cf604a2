"""Gaussian-process surrogate search components."""

from .acquisition import expected_improvement
from .gp import GPHyper, GPModel, gp_fit, gp_predict, kernel_matrix
from .search import BayesSearch, Observation, SearchSpace, default_hyper, draw_candidates

__all__ = [
    "BayesSearch",
    "GPHyper",
    "GPModel",
    "Observation",
    "SearchSpace",
    "default_hyper",
    "draw_candidates",
    "expected_improvement",
    "gp_fit",
    "gp_predict",
    "kernel_matrix",
]
