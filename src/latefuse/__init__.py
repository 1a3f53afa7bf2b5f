"""Late-fusion weight learning: combine inducer scores, search weights, rank.

The package imports nothing: each name is imported from the module that
defines it (``latefuse.optimizers.optimize``, ``latefuse.cli.compare``).
So ``import latefuse`` loads no numpy, and ``python -m latefuse`` can set
BLAS's thread count before numpy reads it.
"""

__version__ = "0.1.0"
