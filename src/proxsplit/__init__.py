"""Primal-dual Douglas-Rachford splitting toolkit.

A small numpy library for composite monotone inclusions and convex
minimization: two inexact primal-dual splitting iterations, the proximal
calculus backing them, linear operators with certified norm bounds, and the
bundled location and image-deblurring experiments.

The package's public names are those of its modules' ``__all__`` lists.
"""

from . import core, linops, problems, prox, solvers

__all__ = [name for module in (core, linops, problems, prox, solvers) for name in module.__all__]

from .core import *  # noqa: E402,F401,F403
from .linops import *  # noqa: E402,F401,F403
from .problems import *  # noqa: E402,F401,F403
from .prox import *  # noqa: E402,F401,F403
from .solvers import *  # noqa: E402,F401,F403

__version__ = "0.1.0"
