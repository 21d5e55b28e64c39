"""Simulation and drift estimation for the mixed sub-fractional OU process.

Layers, bottom up: ``noise`` (fractional Gaussian noise generators),
``paths`` (sub-fractional / mixed processes and the Euler scheme),
``numerics`` (gamma, the correction integral, moment-map inversion, the
martingale kernel equation), ``estimators`` and ``mle`` (the four drift
estimators), ``harness`` (reproducible Monte Carlo experiments) and
``cli`` (command-line front end). Each public name is declared once, in
the ``__all__`` of its module, which the package republishes.
"""

from . import estimators, harness, noise, numerics, paths
from . import mle as _mle  # the star import below rebinds msfou.mle to the estimator
from .estimators import *
from .harness import *
from .mle import *
from .noise import *
from .numerics import *
from .paths import *

__version__ = "0.1.0"

__all__ = ["__version__"]
__all__ += estimators.__all__
__all__ += harness.__all__
__all__ += _mle.__all__
__all__ += noise.__all__
__all__ += numerics.__all__
__all__ += paths.__all__
