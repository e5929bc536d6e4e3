"""Online Bayesian meta-learning for adaptive radar waveform selection.

The library surface is the experiment harness: build an
``ExperimentConfig`` (or read one with ``load_config``) and hand it to
``run_experiment``; every error the package raises on purpose is a
``WaveselError``. A config is checked when it is built, so the modules
below the harness are internal and take its values as given: the
per-track posterior kernel and the KL divergence (``gaussmath``), the
transmit catalog and matched filtering (``waveforms``), the finite-state
target channel (``fstc``), the per-track Thompson-sampling learner
(``bandit``), the track-to-track meta level (``meta``), and reporting over
a replicate's stacked per-CPI record (``metrics``). ``cli`` is the
``wavesel`` command. numpy is the only runtime dependency.
"""

__version__ = "0.1.0"

from .errors import WaveselError
from .harness import ExperimentConfig, load_config, run_experiment

__all__ = [
    "__version__",
    "ExperimentConfig",
    "load_config",
    "run_experiment",
    "WaveselError",
]
