"""Check-in analytics: mobile homophily, social cohesion, and social
next-location prediction over location-based social network traces."""

from .core import (
    CheckIn,
    SocialGraph,
    TemporalContext,
    Venue,
    home_location,
    user_entropy,
)
from .errors import SocmobError
from .ingestion import Dataset, IngestConfig, load_dataset
from .sost import SostConfig, SostModel
from .vomm import ContextKey, ContextTree, TreeConfig

__version__ = "0.1.0"

__all__ = [
    "CheckIn",
    "ContextKey",
    "ContextTree",
    "Dataset",
    "IngestConfig",
    "SocialGraph",
    "SocmobError",
    "SostConfig",
    "SostModel",
    "TemporalContext",
    "TreeConfig",
    "Venue",
    "home_location",
    "load_dataset",
    "user_entropy",
    "__version__",
]
