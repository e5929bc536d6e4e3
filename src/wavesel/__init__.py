"""Online Bayesian meta-learning for adaptive radar waveform selection.

The package splits into a small stack: Gaussian belief arithmetic
(``gaussmath``), the transmit catalog and matched filtering (``waveforms``),
the finite-state target channel (``fstc``), the per-track Thompson-sampling
learner (``bandit``), the track-to-track meta level (``meta``), reporting
over a replicate's stacked per-CPI record (``metrics``), and the batch
experiment harness with its CLI (``harness``, ``cli``).
"""

__version__ = "0.1.0"

from .bandit import TsAgent, run_track
from .errors import WaveselError
from .fstc import (
    FstcInstance,
    SceneConfig,
    StateProcess,
    TaskDistribution,
    compute_loss,
    draw_instance,
)
from .gaussmath import Gaussian, LinearPosterior, blr_update, kl_gaussian
from .harness import ExperimentConfig, load_config, run_experiment
from .meta import (
    POLICIES,
    MetaPosterior,
    TrackData,
    init_meta,
    meta_update,
    run_meta_experiment,
    sample_instance_prior,
)
from .metrics import BoundInputs, kl_trace, pac_bayes_meta, pac_bayes_single
from .waveforms import ComplexEnvelope, catalog_envelope, default_catalog

__all__ = [
    "__version__",
    "WaveselError",
    "Gaussian",
    "LinearPosterior",
    "blr_update",
    "kl_gaussian",
    "ComplexEnvelope",
    "catalog_envelope",
    "default_catalog",
    "StateProcess",
    "TaskDistribution",
    "SceneConfig",
    "FstcInstance",
    "draw_instance",
    "TsAgent",
    "compute_loss",
    "run_track",
    "POLICIES",
    "MetaPosterior",
    "TrackData",
    "init_meta",
    "sample_instance_prior",
    "meta_update",
    "run_meta_experiment",
    "BoundInputs",
    "kl_trace",
    "pac_bayes_single",
    "pac_bayes_meta",
    "ExperimentConfig",
    "load_config",
    "run_experiment",
]
