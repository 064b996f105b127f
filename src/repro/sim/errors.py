"""Exceptions raised by the simulated cluster.

These mirror the failure modes the paper records in its tables:
``"x"`` entries are out-of-memory failures and ``"-"`` entries are jobs
that exceeded the 24-hour wall-clock limit.
"""


class SimulationError(Exception):
    """Base class for simulation failures."""


class SimulatedOOMError(SimulationError):
    """A simulated node exceeded its memory limit.

    Corresponds to the ``"x"`` entries in Tables 1 and 3 of the paper.
    """

    def __init__(self, node_id, used_bytes, limit_bytes, what=""):
        self.node_id = node_id
        self.used_bytes = used_bytes
        self.limit_bytes = limit_bytes
        self.what = what
        message = (
            f"node {node_id} out of memory: used {used_bytes} of "
            f"{limit_bytes} bytes"
        )
        if what:
            message += f" while {what}"
        super().__init__(message)


class SimulatedTimeLimitExceeded(SimulationError):
    """The job ran past the simulated time limit.

    Corresponds to the ``"-"`` (>24 hours) entries in Tables 1 and 3.
    """

    def __init__(self, limit_seconds):
        self.limit_seconds = limit_seconds
        super().__init__(f"job exceeded simulated time limit of {limit_seconds}s")
