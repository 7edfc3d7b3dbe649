"""OOD scoring via weighted logical constraints over concept predictions.

Subpackage map:

- artifacts: the atomic file writer and the JSON reader every artifact uses
- csvblocks: the CSV reader and writer, a block of rows at a time;
  imported by the functions that read or write a CSV file
- schema: semantic space definition, dataset I/O
- constraints: constraint DSL parser and batch compiler
- compiled: scipy's compiled modules, loaded alone; the L-BFGS-B driver
- mln: log-linear constraint model, exact inference, weight learning
- distributions: parametric score normalization (GEV et al.)
- fusion: combined outlier score and thresholding
- search: candidate generation and greedy constraint-set search
- metrics: AUROC, AUPR, FPR95
- synth: seeded synthetic benchmarks with known ground truth
- cli: command-line entry point
"""

from .constraints import CompiledConstraint, compile_source, load_constraints, parse
from .distributions import ScoreDistribution, fit_distribution, survival
from .fusion import FusedScorer, fuse_batch, threshold
from .metrics import EvalResult, auroc, aupr, evaluate_scores, fpr_at_tpr
from .mln import (
    FitConfig,
    MlnModel,
    enumerate_space,
    explain,
    explain_batch,
    fit_weights,
    log_partition,
    mln_score,
    mln_score_batch,
    nll_and_gradient,
)
from .schema import Dataset, Schema, load_dataset, load_schema, schema_from_dict
from .search import GeneratorConfig, SearchConfig, generate_candidates, greedy_search
from .synth import (
    DetectorSpec,
    SynthSpec,
    attach_detector_scores,
    make_benchmark,
    sample_id,
    sample_ood,
)

__version__ = "0.1.0"
