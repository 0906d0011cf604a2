"""Set-up probe: a fresh interpreter's path from start to the first suggestion.

Run as ``python3 perfbench/first_suggestion.py <workload> <seed>``. It
imports probeopt, pays the lazy first-call set-up (first BLAS call, first
``ndtr``), builds and starts the workload's scenario and, as soon as the
search returns its first suggestion, prints ``ready`` and exits at once.
The parent times the interval from spawning this process to reading that
line; that interval is the benchmark's ``setup_s``.
"""

from __future__ import annotations

import os
import sys

from workloads import WORKLOADS

from probeopt.bo.search import BayesSearch, Observation
from probeopt.evaluator import search_space
from probeopt.harness.scenarios import run_scenario


def warm_lazy_setup() -> None:
    """Pay the first-call set-up a run would otherwise hit at its first GP
    suggestion: the first BLAS/LAPACK calls (Cholesky, triangular solves)
    and the first ``ndtr``."""
    search = BayesSearch(search_space(), seed=0, n_init=1, n_cand=8)
    x = search.suggest()
    search.update(Observation(x=tuple(float(v) for v in x), y=0.0))
    search.suggest()


def main() -> None:
    workload, seed = WORKLOADS[sys.argv[1]], int(sys.argv[2])
    warm_lazy_setup()
    suggest = BayesSearch.suggest

    def first_suggestion(search: BayesSearch):
        suggest(search)
        sys.stdout.write("ready\n")
        sys.stdout.flush()
        os._exit(0)  # from the optimizer thread: end the whole run here

    BayesSearch.suggest = first_suggestion
    run_scenario(workload.config(seed))
    sys.exit("perfbench: scenario ended before its first suggestion")


if __name__ == "__main__":
    main()
