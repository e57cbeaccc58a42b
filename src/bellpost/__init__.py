"""Three-party post-selected CHSH task: quantum vs. classical resources.

Modules:
  qcore     the shared tolerance and NumericsError
  rng       jumpable PCG64DXSM words, a pure function of (seed, trial index)
  protocol  the three-party task, tallying, correlations, exact statistics
  lhv       local-hidden-variable strategies, bounds, and the discard loophole
  swap      entanglement-swapping realization with noise models
  cli       command-line front end emitting deterministic reports
"""

__version__ = "0.1.0"
