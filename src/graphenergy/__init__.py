"""Energy-based smoothing diagnostics for attention message passing.

The package measures how node features homogenize (or refuse to) as depth
or integration time grows, across layer-norm placements and their
continuous-time counterparts. Everything runs at desk scale on CPU with
numpy/scipy; there is no training loop.
"""

__version__ = "0.1.0"
