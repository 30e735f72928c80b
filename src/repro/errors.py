"""Exception hierarchy for the Elk reproduction.

Every subsystem raises a subclass of :class:`ElkError` so callers can catch
library failures without also swallowing programming errors such as
``TypeError`` raised by misuse of the Python API itself.
"""

from __future__ import annotations


class ElkError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class ShapeError(ElkError):
    """A tensor or tile shape is inconsistent or malformed."""


class GraphError(ElkError):
    """An operator graph is malformed (cycles, dangling tensors, ...)."""


class UnknownOperatorError(ElkError):
    """An operator type has no registered cost / partition handler."""


class ArchitectureError(ElkError):
    """A chip / system configuration is inconsistent."""


class PartitionError(ElkError):
    """No valid partition plan exists for an operator under the constraints."""


class AllocationError(ElkError):
    """On-chip memory allocation could not fit the requested operators."""


class SchedulingError(ElkError):
    """The operator scheduler could not produce a valid execution plan."""


class SimulationError(ElkError):
    """The event-driven simulator reached an inconsistent state."""


class SimulationInvariantError(ElkError):
    """A serving or fleet event loop broke an invariant (a library bug)."""


class CodegenError(ElkError):
    """Code generation / device-program construction failed."""


class CostModelError(ElkError):
    """A cost model was queried outside its supported domain."""


class ConfigurationError(ElkError):
    """Invalid user-supplied compiler or experiment options."""


class CompileFailedError(ElkError):
    """A compilation request failed after exhausting its retries.

    Raised by the service layer (e.g. a ``compile_many`` process-pool worker
    dying, a compile timing out, or an injected transient fault with no
    fallback) instead of leaking ``concurrent.futures`` internals.  Carries
    the offending request so callers can report *which* compile failed.
    """

    def __init__(self, message: str, request: object | None = None) -> None:
        super().__init__(message)
        self.request = request
