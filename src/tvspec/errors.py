"""Shared exception taxonomy.

The CLI maps exception types onto its exit-code contract, so library code
should raise these rather than bare ValueError/RuntimeError for anything a
caller may want to distinguish programmatically.
"""


class TvspecError(Exception):
    """Base class for all library-specific failures."""


class PoleError(TvspecError):
    """An evaluation point (or an integration segment) came within the
    pole guard distance of a lattice translate of a singular point."""


class NonConvergenceError(TvspecError):
    """An iteration hit its step/iteration budget before meeting its
    tolerance.  It carries only its message, which says which iteration
    gave up."""


class NotConstructibleError(TvspecError):
    """The requested object is not reachable by the implemented
    construction (and inventing it would risk a wrong answer)."""


class CheckError(TvspecError):
    """An internal numerical cross-check failed beyond its tolerance."""
