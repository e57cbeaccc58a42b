"""The numerical contract that every bellpost module shares.

``EXACT_TOL`` is how far an analytically exact quantity may stray through
rounding, and ``NumericsError`` is what an internally computed quantity
raises when it breaks its contract.  ``cli``, ``lhv`` and ``protocol``
import them from here.
"""

from __future__ import annotations

# How far an analytically exact quantity (a probability, a prior sum, a
# selection rate) may stray through rounding.  A looser value would mask bugs:
# every quantity here is simple.
EXACT_TOL = 1e-12


class NumericsError(RuntimeError):
    """An internally computed quantity violated its numerical contract."""
