"""Over-the-air federated distillation: channel simulation, analog knowledge
aggregation, closed-form transceiver design, an in-house semidefinite-program
beamforming optimizer, a desk-scale learner, error metrics, and an experiment
CLI.

Modules:
    rng         — deterministic tagged substreams for every random draw
    channel     — fading, path loss, receiver noise, channel-estimate quality
    knowledge   — per-class soft predictions, their statistics, normalized blocks
    airagg      — the superposed uplink round: combining and global estimation
    sdp_solver  — dense primal-dual interior-point semidefinite solver
    transceiver — per-round beamformer, power, and denormalizer optimization
    learner     — two-layer softmax classifier with a distillation term
    metrics     — error functionals, objectives, CSV rows
    oracles     — independent cross-checks (grid search, loops, differences)
    expcli      — datasets, partitions, configuration, experiments, CLI

BLAS runs on one thread unless OPENBLAS_NUM_THREADS or OMP_NUM_THREADS says
otherwise: every matrix here is small, and threads only contend for them. The
default takes effect only when numpy has not been imported before airfd.
"""

import os
import sys

# The BLAS thread variables as found at import (None where unset), and
# whether numpy, and with it BLAS, was loaded before this package, so that
# the one-thread default came too late. The run summary reports both.
BLAS_THREADS_AT_IMPORT = {
    _name: os.environ.get(_name)
    for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
}
NUMPY_LOADED_FIRST = "numpy" in sys.modules

for _name in BLAS_THREADS_AT_IMPORT:
    os.environ.setdefault(_name, "1")

from . import (  # noqa: E402  (BLAS threads are set before numpy loads)
    airagg,
    channel,
    expcli,
    knowledge,
    learner,
    metrics,
    oracles,
    rng,
    sdp_solver,
    transceiver,
)

__all__ = [
    "airagg",
    "channel",
    "expcli",
    "knowledge",
    "learner",
    "metrics",
    "oracles",
    "rng",
    "sdp_solver",
    "transceiver",
]

__version__ = "0.1.0"
