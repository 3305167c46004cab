"""Commuting algebras of quivers.

Identify all parallel paths of a finite quiver and the path algebra
collapses to a finite-dimensional block matrix algebra supported on the
reachability pattern.  This package computes that algebra, its poset
skeleton and incidence model, homological invariants of the skeleton, and
ships a brute-force truncated oracle plus a CLI for all of it.
"""

from .algebra import *
from .dsl import *
from .errors import *
from .fields import *
from .homology import *
from .oracle import *
from .poset import *
from .quiver import *
from .structure import *

__version__ = "0.1.0"

__all__: list[str] = []
__all__ += algebra.__all__
__all__ += dsl.__all__
__all__ += errors.__all__
__all__ += fields.__all__
__all__ += homology.__all__
__all__ += oracle.__all__
__all__ += poset.__all__
__all__ += quiver.__all__
__all__ += structure.__all__
