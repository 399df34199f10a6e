"""Reproduction experiments, one per paper artefact (``repro list``)."""

from .base import SCALES, ExperimentResult, bench_scale_from_env, pick
from .registry import (
    REGISTRY,
    Experiment,
    get_experiment,
    list_experiments,
    run_experiment,
)

__all__ = [
    "REGISTRY",
    "SCALES",
    "Experiment",
    "ExperimentResult",
    "bench_scale_from_env",
    "get_experiment",
    "list_experiments",
    "pick",
    "run_experiment",
]
