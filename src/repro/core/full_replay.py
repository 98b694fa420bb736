"""Complete-log deterministic replay.

Once any attempt reproduces the recorded failure, PRES saves the attempt's
*complete* schedule (one thread id per step).  From that point on, replay
is not probabilistic anymore: :func:`replay_complete` re-executes the exact
interleaving, every time, which is the paper's "after a bug is reproduced
once, PRES can reproduce it every time".
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import List, Optional

from repro.core.recorder import Oracle, apply_oracle
from repro.errors import SketchFormatError
from repro.sim.machine import Machine, MachineConfig
from repro.sim.program import Program
from repro.sim.scheduler import FixedOrderScheduler
from repro.sim.trace import Trace


@dataclass
class CompleteLog:
    """A fully deterministic replay recipe for one reproduced bug."""

    program_name: str
    schedule: List[int] = field(default_factory=list)
    config: MachineConfig = field(default_factory=MachineConfig)
    failure_signature: Optional[tuple] = None

    def to_json(self) -> str:
        """Serialize for attaching to a bug report; see :meth:`from_json`."""
        return json.dumps(
            {
                "program": self.program_name,
                "schedule": self.schedule,
                "ncpus": self.config.ncpus,
                "max_steps": self.config.max_steps,
                "kernel_seed": self.config.kernel_seed,
                "failure_signature": list(self.failure_signature)
                if self.failure_signature
                else None,
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "CompleteLog":
        try:
            payload = json.loads(text)
            signature = payload["failure_signature"]
            return cls(
                program_name=payload["program"],
                schedule=list(payload["schedule"]),
                config=MachineConfig(
                    ncpus=payload["ncpus"],
                    max_steps=payload["max_steps"],
                    kernel_seed=payload["kernel_seed"],
                ),
                failure_signature=tuple(signature) if signature else None,
            )
        except (KeyError, TypeError, ValueError, json.JSONDecodeError,
                RecursionError) as exc:
            raise SketchFormatError(f"corrupt complete log: {exc}") from None


def replay_complete(
    program: Program,
    log: CompleteLog,
    oracle: Optional[Oracle] = None,
) -> Trace:
    """Re-execute a reproduced bug's exact interleaving."""
    machine = Machine(program, FixedOrderScheduler(log.schedule), log.config)
    trace = machine.run()
    failure = apply_oracle(trace, oracle)
    if failure is not None and trace.failure is None:
        trace.failure = failure
    return trace
