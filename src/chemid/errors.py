"""Exception hierarchy for the chemid toolkit.

Every error raised by the package derives from :class:`ChemidError` so
callers (in particular the command-line front end) can map failures onto
exit codes without string matching.
"""


class ChemidError(Exception):
    """Base class for all chemid errors."""


class ConfigError(ChemidError):
    """Invalid configuration: bad key, bad value, or inconsistent inputs."""


class InvalidStateError(ChemidError):
    """A state field violates its invariants (non-finite or out of range)."""


class NumericalSolveError(ChemidError):
    """A linear solve inside the time stepper failed."""


class PositivityViolationError(NumericalSolveError):
    """Cell density dropped below the -1e-12 floor after a step."""


class LowerBoundViolationError(NumericalSolveError):
    """Chemoattractant fell below its decaying-exponential lower bound."""


class DomainMismatchError(ChemidError):
    """Target grid does not lie inside the source grid's space-time domain."""


class ZeroWidthIntervalError(InvalidStateError):
    """A concentration interval collapsed to a single point."""


class IncompatibleBasisError(ChemidError):
    """Two piecewise-linear functions do not share the same knot set."""


class NoiseLevelError(ChemidError):
    """Requested noise level cannot keep the chemical measurements positive."""


class ForwardSolveError(ChemidError):
    """A forward solve inside the optimizer failed; the step is rejected."""


class InsufficientSweepError(ChemidError):
    """Too few valid L-curve points to locate a corner."""
