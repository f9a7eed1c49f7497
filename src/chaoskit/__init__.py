"""Chaos indices for scalar time series.

Delay embedding, mutual-information delay selection, minimum embedding
dimension, the largest Lyapunov exponent, and the correlation dimension,
plus a batch pipeline for 30 s staged sleep epochs and Welch-test group
comparisons of the resulting indices.

Each library module's ``__all__`` is its public surface, and the package
exports the union of them; ``chaoskit.io`` and ``chaoskit.cli`` load
only when imported.
"""

__version__ = "0.1.0"

from . import cao, correlation, errors, generators, information, lyapunov, series, sleep, stats
from .cao import *
from .correlation import *
from .errors import *
from .generators import *
from .information import *
from .lyapunov import *
from .series import *
from .sleep import *
from .stats import *

__all__ = ["__version__"]
for _module in (series, information, cao, lyapunov, correlation, generators, sleep, stats, errors):
    __all__ += _module.__all__
del _module
