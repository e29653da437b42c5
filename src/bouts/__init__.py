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
    explained_variance,
    log_grid,
    select_penalty,
    sweep,
)
from .stability import (
    SelectionMatrix,
    cohens_d,
    make_report,
    selection_replicates,
    stability,
    ztest,
)
from .synth import SynthSpec, generate, write_outputs
from .trees import SortedRows, TreeParams, raw_gain, sort_rows

__version__ = "0.1.0"
