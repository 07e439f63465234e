"""Few-shot classification via closed-form feature-map reconstruction.

The reconstruction head scores a query feature map by how well a ridge
regression from a class's pooled support features can rebuild it; three
reference heads (prototype distance, pooled subspace projection, and
attention reconstruction) share the same episodic engine. Training
differentiates the closed-form solve directly; a CLI exposes dataset
generation, training, evaluation, and a latency benchmark comparing the
two algebraically equivalent closed-form evaluations.
"""

from .baselines import CtxParams, ProjectionConfig
from .bench import BenchConfig, BenchReport, run_benchmark
from .data import GenSpec, generate, ingest, save_dataset
from .episodes import (
    Dataset,
    Episode,
    EvalReport,
    SamplingError,
    evaluate,
    make_head_fn,
    sample_episode,
    trial_rng,
)
from .head import (
    FeatureMap,
    HeadParams,
    Reconstruction,
    Reconstructions,
    SupportPool,
    choose_formulation,
    effective_lambda,
    reconstruct,
    reconstruct_direct,
    reconstruct_woodbury,
)
__all__ = [
    "BenchConfig",
    "BenchReport",
    "CtxParams",
    "Dataset",
    "Episode",
    "EvalReport",
    "FeatureMap",
    "GenSpec",
    "HeadParams",
    "ProjectionConfig",
    "Reconstruction",
    "Reconstructions",
    "SamplingError",
    "SupportPool",
    "choose_formulation",
    "effective_lambda",
    "evaluate",
    "generate",
    "ingest",
    "make_head_fn",
    "reconstruct",
    "reconstruct_direct",
    "reconstruct_woodbury",
    "run_benchmark",
    "sample_episode",
    "save_dataset",
    "trial_rng",
]
