"""User-centric cell-free massive MIMO mobility simulator.

Library layout, one module per concern:

* ``geometry``: deployment generation, torus distances/angles, UE motion
* ``channel``: AR(1) shadow fading, path loss, one-ring covariances, sampling
* ``pilots``: pilot assignment, decorrelated observations, MMSE estimation
* ``combining``: local MMSE combiners, effective-gain statistics, second-stage
  weights, SINR/SE
* ``clustering``: serving-cluster strategies and handover
* ``signaling``: control/data-plane cost accounting
* ``simulate``: episode and campaign drivers
* ``cli``: command-line front end (run / sweep / validate)

Each concept has one batched implementation here. The scalar reference
oracles that the tests compare it against live in ``tests/oracles.py``.
"""

from .config import SimConfig, default_config, from_file
from .errors import ConfigurationError, NumericalError, SimulationError
from .simulate import AggregateResult, EpisodeResult, run_campaign, run_episode

__version__ = "0.1.0"
