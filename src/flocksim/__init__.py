"""Deterministic multi-vehicle path-following simulation.

Fixed-wing kinematics under gusty wind, look-ahead pursuit guidance,
sampling-based obstacle replanning, and leaderless arrival-time consensus
over a range-limited network, plus a scenario harness and CLI.

The public API is ``__version__`` plus the ``__all__`` of each submodule
re-exported here; a name is declared public once, in its submodule's
``__all__``.  The attributes of ``Metrics`` are named as the keys of the
``metrics.json`` that ``export`` writes.
"""

# Set before the submodules load: harness reads it for the run manifest.
__version__ = "0.1.0"

from .coordination import *
from .dynamics import *
from .geo import *
from .guidance import *
from .harness import *
from .network import *
from .replanner import *

__all__ = [
    "__version__",
    *coordination.__all__,
    *dynamics.__all__,
    *geo.__all__,
    *guidance.__all__,
    *harness.__all__,
    *network.__all__,
    *replanner.__all__,
]
