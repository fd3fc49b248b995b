"""Exception hierarchy for the band-join reproduction library.

All library-specific errors derive from :class:`ReproError` so that callers
can catch every failure mode of the library with a single ``except`` clause
while still being able to distinguish configuration problems from data
problems or optimizer failures.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every exception raised by this library."""


class SchemaError(ReproError):
    """A relation or band condition refers to attributes that do not exist,
    or two relations that must be join-compatible are not."""


class BandConditionError(ReproError):
    """A band condition is malformed (negative width, wrong dimensionality,
    unknown attribute)."""


class NonFiniteInputError(ReproError):
    """Input data holds NaN, +inf or -inf.  Band-joins are defined on finite
    values only, so such data is rejected when it enters the catalog."""


class PartitioningError(ReproError):
    """A partitioner produced an invalid partitioning (e.g. a tuple routed to
    no worker, or an output pair covered by zero or more than one worker)."""


class OptimizationError(ReproError):
    """The optimization phase of a partitioner failed to converge or was
    given parameters it cannot work with (e.g. zero workers)."""


class SamplingError(ReproError):
    """A sampler was asked for an impossible sample (e.g. output sample from
    an empty join) or its rejection loop failed to make progress."""


class CostModelError(ReproError):
    """The running-time model is used before calibration or calibrated with
    degenerate training data."""


class ExecutionError(ReproError):
    """The distributed execution detected an inconsistency (e.g. output that
    does not match the single-machine join) or was misconfigured."""


class WorkloadError(ReproError):
    """An experiment workload definition is inconsistent."""


class ServiceError(ReproError):
    """The band-join serving layer was used incorrectly (unknown relation or
    prepared query, malformed request, operation on a closed service)."""


class ServiceOverloadError(ServiceError):
    """The query scheduler rejected a request because the admission-control
    limit on pending queries was reached; retry after in-flight work drains."""


class DeadlineExceededError(ServiceError):
    """A request's deadline expired before its execution finished; the
    caller set a per-request (or service-default) deadline and the scheduler
    or an execution backend gave up rather than tie up a worker."""


class CorruptSegmentError(ReproError):
    """An on-disk column segment failed validation on open (missing file,
    truncated payload, row-count or checksum mismatch).  Raised instead of
    silently serving wrong data; the writer path recovers by rewriting."""
