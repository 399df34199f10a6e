"""Registry of all reproduction experiments.

Each entry maps an experiment id (the ids ``repro list`` prints and
``repro report`` uses as section headings) to its runner and provenance.  The CLI and benchmarks
resolve experiments exclusively through this registry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from ..exceptions import ExperimentError
from . import (
    ablation,
    ag_quadratic,
    campaigns,
    crossover,
    engine_equivalence,
    figures,
    kdistant,
    line_scaling,
    summary,
    tradeoff,
    trap_drain,
    tree_paths,
    tree_scaling,
)
from .base import ExperimentResult

__all__ = ["Experiment", "REGISTRY", "get_experiment", "list_experiments", "run_experiment"]


@dataclass(frozen=True)
class Experiment:
    """A registered experiment with provenance metadata."""

    experiment_id: str
    runner: Callable[..., ExperimentResult]
    description: str
    paper_reference: str


def _entry(experiment_id, runner, description, paper_reference):
    return Experiment(
        experiment_id=experiment_id,
        runner=runner,
        description=description,
        paper_reference=paper_reference,
    )


REGISTRY: Dict[str, Experiment] = {
    e.experiment_id: e
    for e in [
        _entry("figure1", figures.run_figure1, figures.DESCRIPTION_FIG1,
               "Figure 1 (§4.2)"),
        _entry("figure2", figures.run_figure2, figures.DESCRIPTION_FIG2,
               "Figure 2 (§5)"),
        _entry("summary", summary.run, summary.DESCRIPTION,
               summary.PAPER_REFERENCE),
        _entry("ag_quadratic", ag_quadratic.run, ag_quadratic.DESCRIPTION,
               ag_quadratic.PAPER_REFERENCE),
        _entry("kdistant_vs_k", kdistant.run_vs_k, kdistant.DESCRIPTION_VS_K,
               kdistant.PAPER_REFERENCE),
        _entry("kdistant_vs_n", kdistant.run_vs_n, kdistant.DESCRIPTION_VS_N,
               kdistant.PAPER_REFERENCE),
        _entry("ring_arbitrary", kdistant.run_arbitrary,
               kdistant.DESCRIPTION_ARBITRARY, kdistant.PAPER_REFERENCE),
        _entry("crossover", crossover.run, crossover.DESCRIPTION,
               crossover.PAPER_REFERENCE),
        _entry("line_scaling", line_scaling.run, line_scaling.DESCRIPTION,
               line_scaling.PAPER_REFERENCE),
        _entry("tree_scaling", tree_scaling.run, tree_scaling.DESCRIPTION,
               tree_scaling.PAPER_REFERENCE),
        _entry("trap_drain", trap_drain.run_drain,
               trap_drain.DESCRIPTION_DRAIN, trap_drain.PAPER_REFERENCE),
        _entry("tidy_time", trap_drain.run_tidy, trap_drain.DESCRIPTION_TIDY,
               trap_drain.PAPER_REFERENCE),
        _entry("tree_paths", tree_paths.run_paths,
               tree_paths.DESCRIPTION_PATHS, tree_paths.PAPER_REFERENCE),
        _entry("reset_line", tree_paths.run_reset,
               tree_paths.DESCRIPTION_RESET, tree_paths.PAPER_REFERENCE),
        _entry("engine_equivalence", engine_equivalence.run,
               engine_equivalence.DESCRIPTION,
               engine_equivalence.PAPER_REFERENCE),
        _entry("state_time_tradeoff", tradeoff.run, tradeoff.DESCRIPTION,
               tradeoff.PAPER_REFERENCE),
        _entry("reset_ablation", ablation.run, ablation.DESCRIPTION,
               ablation.PAPER_REFERENCE),
        _entry("scenario_ag_recovery", campaigns.run_ag,
               campaigns.DESCRIPTION_AG, campaigns.PAPER_REFERENCE),
        _entry("scenario_tree_recovery", campaigns.run_tree,
               campaigns.DESCRIPTION_TREE, campaigns.PAPER_REFERENCE),
        _entry("scenario_line_churn", campaigns.run_line_churn,
               campaigns.DESCRIPTION_LINE, campaigns.PAPER_REFERENCE),
        _entry("scenario_epoch_ag", campaigns.run_epoch_ag,
               campaigns.DESCRIPTION_EPOCH_AG, campaigns.PAPER_REFERENCE),
        _entry("scenario_epoch_tree", campaigns.run_epoch_tree,
               campaigns.DESCRIPTION_EPOCH_TREE, campaigns.PAPER_REFERENCE),
    ]
}


def list_experiments() -> List[Experiment]:
    """All experiments, in registry order."""
    return list(REGISTRY.values())


def get_experiment(experiment_id: str) -> Experiment:
    """Look an experiment up by id."""
    if experiment_id not in REGISTRY:
        known = ", ".join(sorted(REGISTRY))
        raise ExperimentError(
            f"unknown experiment {experiment_id!r}; known ids: {known}"
        )
    return REGISTRY[experiment_id]


def run_experiment(
    experiment_id: str,
    scale: str = "small",
    seed: int = 0,
    workers: Optional[int] = None,
) -> ExperimentResult:
    """Resolve and run one experiment.

    ``workers`` > 1 fans the experiment's sweep repetitions out over a
    process pool (bit-identical to serial; experiments that do not
    sweep accept and ignore the knob).
    """
    return get_experiment(experiment_id).runner(
        scale=scale, seed=seed, workers=workers
    )
