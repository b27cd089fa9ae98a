"""Exact polynomial corrections to bubble profiles, bubble-weighted moment
calculus, and balance checks at simple concentration points.

Each module's ``__all__`` is the one list of its public names; every one of
them is importable from the package."""

from .errors import *  # noqa: F401,F403
from .polynomials import *  # noqa: F401,F403
from .reduction import *  # noqa: F401,F403
from .moments import *  # noqa: F401,F403
from .balance import *  # noqa: F401,F403
from .profiles import *  # noqa: F401,F403

__version__ = "0.1.0"
