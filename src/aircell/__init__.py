"""Resource management toolkit for a service-oriented wireless cell.

Subpackages cover freshness-aware caching (freshness, cache, p2p),
broadcast planning and air indexing (broadcast_plan, air_schedule,
retrieval), fidelity adaptation (fidelity) and the slot-based engine (sim).
The command line (aircell.cli) is left out, for ``python -m`` to run alone.
"""

__version__ = "0.1.0"

from . import (  # noqa: F401
    air_schedule,
    broadcast_plan,
    cache,
    fidelity,
    freshness,
    p2p,
    retrieval,
    sim,
)
