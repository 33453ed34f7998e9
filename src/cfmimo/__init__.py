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

from .channel import (
    ChannelStatistics,
    ShadowFading,
    jakes_autocorrelation,
    one_ring_covariance,
    path_loss_db,
    refresh_statistics,
)
from .clustering import (
    ClusterState,
    HandoverConfig,
    HandoverEvent,
    NeighborTable,
    cellular_handover_step,
    fixed_handover_step,
    initial_clusters,
    opportunistic_track,
)
from .combining import (
    EffectiveGainStats,
    GainMoments,
    lsfd_weights,
    second_stage,
    simulate_gain_moments,
    stats_for_ue,
    uplink_sinr,
)
from .config import SimConfig, default_config, from_file
from .errors import ConfigurationError, NumericalError, SimulationError
from .geometry import DeploymentConfig, Topology, generate_deployment
from .pilots import PilotConfig, assign_pilots, observe_pilots
from .signaling import FrameConfig, LedgerDelta, SignalingLedger, account_control_plane, account_data_plane
from .simulate import AggregateResult, EpisodeResult, episode_seed, run_campaign, run_episode

__version__ = "0.1.0"
