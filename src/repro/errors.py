"""Exception hierarchy for the repro package.

Exceptions fall into two families:

* Errors raised because the *library user* misused an API
  (:class:`SimUsageError` and friends).  These propagate normally.
* Errors raised because the *simulated program* did something illegal
  (:class:`SimProgramError` and friends).  The machine converts these into
  :class:`~repro.sim.failures.Failure` records on the trace instead of
  letting them escape, because a crashing simulated program is a legitimate
  outcome that recording/replay must capture.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every exception raised by this package."""


class SimUsageError(ReproError):
    """The host code (not the simulated program) misused a simulator API."""


class SchedulerError(ReproError):
    """A scheduler produced an invalid decision (e.g. a non-runnable tid)."""


class ReplayDivergence(ReproError):
    """A replay attempt can no longer follow its sketch or constraints.

    Raised by replay schedulers when the execution has provably diverged
    from the recorded sketch (signature mismatch, or no thread can make
    progress without violating the recorded order).  The replayer catches
    this and records a failed attempt; it never escapes to the user.
    """

    def __init__(self, reason: str, step: int = -1) -> None:
        super().__init__(reason)
        self.reason = reason
        self.step = step


class SimProgramError(ReproError):
    """Base for illegal actions performed by the simulated program."""


class SimMemoryError(SimProgramError):
    """Access to an address that does not exist (never written or freed)."""

    def __init__(self, addr: object, detail: str = "") -> None:
        message = f"invalid memory access at {addr!r}"
        if detail:
            message = f"{message}: {detail}"
        super().__init__(message)
        self.addr = addr
        self.diagnosis = detail

    def crash_site(self) -> str:
        """Schedule-independent identity of the crash.

        The dynamic parts of the address (indices like a request id) are
        stripped down to the region, because the *same* use-after-free hitting
        request 7 instead of request 1 is the same bug — what a real
        debugger would call "same faulting instruction".
        """
        region = self.addr[0] if isinstance(self.addr, tuple) and self.addr else self.addr
        return f"{self.diagnosis or 'invalid access'} in region {region!r}"


class SimSyncError(SimProgramError):
    """Illegal use of a synchronization object (e.g. unlocking a mutex the
    thread does not own)."""


class SimSyscallError(SimProgramError):
    """A simulated system call was invoked with invalid arguments."""


class SketchFormatError(ReproError):
    """A serialized sketch log could not be parsed."""


class RecorderKilled(ReproError):
    """The recorder was killed mid-run by the fault injector.

    Models the production process dying while recording — the defining
    scenario PRES must survive.  When raised, any journal the recorder was
    writing holds the flushed prefix of the run, and
    :func:`repro.robust.journal.salvage` recovers it.
    """

    def __init__(self, at_event: int) -> None:
        super().__init__(f"recorder killed at event {at_event}")
        self.at_event = at_event


class NoFailingRunError(ReproError):
    """A request has no failing production run to reproduce: the seed
    search found none, or the given seed's run did not fail."""
