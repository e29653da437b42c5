"""Boosted universal and task-specific feature selection.

Two-stage gradient boosting over regression trees: a multitask stage whose
maximin splits admit only features that help every task (the universal set),
then per-task boosting that pays a penalty to introduce anything new (the
task-specific sets).  Shipped with the penalty-path protocol, selection
stability statistics, and a planted-truth synthetic generator.
"""

from .boosting import (
    BoostConfig,
    BoutsModel,
    feature_importances,
    fit,
    fit_single_task,
    task_specific_features,
    universal_features,
)
from .data import (
    MultitaskDataset,
    SplitAssignment,
    Standardizer,
    TaskDataset,
    build_category,
    fit_standardizer,
    load_manifest,
    load_task_csv,
    overlap_split,
    prune_features,
    standardize_dataset,
)
from .errors import BoutsError, DataError, NumericalError
from .multitask import MultitaskSplit, MultitaskTree, grow_multitask_tree, maximin_split
from .pathsweep import (
    RegularizationPath,
    SelectedPenalty,
    explained_variance,
    log_grid,
    normalized_absolute_error,
    select_penalty,
    sweep,
)
from .stability import (
    SelectionMatrix,
    StabilityReport,
    cohens_d,
    make_report,
    selection_replicates,
    spearman,
    stability,
    stability_ci,
    stability_variance,
    universal_correlation_matrix,
    ztest,
)
from .synth import SynthSpec, SynthTruth, generate, write_outputs
from .trees import NodeView, TreeParams, penalized_gain, raw_gain

__version__ = "0.1.0"

__all__ = [
    "BoostConfig",
    "BoutsError",
    "BoutsModel",
    "DataError",
    "MultitaskDataset",
    "MultitaskSplit",
    "MultitaskTree",
    "NodeView",
    "NumericalError",
    "RegularizationPath",
    "SelectedPenalty",
    "SelectionMatrix",
    "SplitAssignment",
    "StabilityReport",
    "Standardizer",
    "SynthSpec",
    "SynthTruth",
    "TaskDataset",
    "TreeParams",
    "build_category",
    "cohens_d",
    "explained_variance",
    "feature_importances",
    "fit",
    "fit_single_task",
    "fit_standardizer",
    "generate",
    "grow_multitask_tree",
    "load_manifest",
    "load_task_csv",
    "log_grid",
    "make_report",
    "maximin_split",
    "normalized_absolute_error",
    "overlap_split",
    "penalized_gain",
    "prune_features",
    "raw_gain",
    "select_penalty",
    "selection_replicates",
    "spearman",
    "stability",
    "stability_ci",
    "stability_variance",
    "standardize_dataset",
    "sweep",
    "task_specific_features",
    "universal_correlation_matrix",
    "universal_features",
    "write_outputs",
    "ztest",
]
