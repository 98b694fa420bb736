"""One observability session: a tracer plus a metrics registry.

Everything downstream (recorder, reproducer, explorers, the degradation
ladder, the CLI) takes a single :class:`ObsSession` handle instead of
separate tracer/metrics arguments, and the shared :data:`NULL_SESSION`
makes "observability off" the zero-cost default — callers never
``if obs is not None`` around instrumentation.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.obs.export import save_chrome_trace
from repro.obs.metrics import NULL_METRICS, MetricsRegistry
from repro.obs.tracer import NULL_TRACER, Tracer


@dataclass
class ObsSession:
    """The observability handles threaded through one pipeline run."""

    tracer: Tracer
    metrics: MetricsRegistry

    @property
    def enabled(self) -> bool:
        """Whether any instrument in this session is live."""
        return self.tracer.enabled or self.metrics.enabled

    @classmethod
    def create(cls, trace: bool = True, metrics: bool = True) -> "ObsSession":
        """A live session; disable either half to skip its cost."""
        return cls(
            tracer=Tracer(enabled=True) if trace else NULL_TRACER,
            metrics=MetricsRegistry(enabled=True) if metrics else NULL_METRICS,
        )

    def write_trace(self, path: str) -> str:
        """Export the collected spans as Chrome-trace JSON at ``path``."""
        return save_chrome_trace(self.tracer, path)

    def write_metrics(self, path: str) -> str:
        """Write the metrics snapshot JSON at ``path`` atomically."""
        from repro.robust.atomic import atomic_write_text

        return atomic_write_text(path, self.metrics.to_json())


#: The shared disabled session: a null tracer and a null registry.
NULL_SESSION = ObsSession(tracer=NULL_TRACER, metrics=NULL_METRICS)
