"""Search-as-a-service: session server, scheduler, result cache.

The library's one-shot :class:`~repro.search.session.SearchSession` gets
a long-lived front end here, in four layers:

* :mod:`repro.service.store` -- a content-addressed on-disk
  :class:`ResultStore`: results are keyed by the SHA-256 of the spec's
  canonical identity, written atomically and read from disk on every
  lookup.  ``$REPRO_CACHE_DIR`` picks the root.
* :mod:`repro.service.server` -- :class:`SearchServer`, the async job
  scheduler: cache-first submission, single-flight dedup of identical
  in-flight specs, ``max_concurrent`` sessions on scheduler threads,
  graceful cancellation, per-job event streams.
* :mod:`repro.service.transport` / :mod:`repro.service.client` -- an
  optional line-delimited-JSON TCP protocol plus the matching
  :class:`ServiceClient`, so a second process (or the ``repro serve`` /
  ``submit`` / ``jobs`` / ``cache`` CLI) can drive the server.

The cache contract: submitting an identical spec twice executes one
session; the second response is the stored document, bit-identical to
the first modulo nothing (the wall-clock provenance *is* the original
run's).  ``force=True`` re-executes and overwrites.
"""

from repro.service.client import ServiceClient, ServiceError
from repro.service.server import Job, JobObserver, JobState, SearchServer
from repro.service.store import (
    ResultStore,
    canonical_identity,
    default_cache_dir,
    result_key,
)
from repro.service.transport import (
    DEFAULT_PORT,
    ServiceTCPServer,
    probe,
    start_transport,
)

__all__ = [
    "DEFAULT_PORT",
    "Job",
    "JobObserver",
    "JobState",
    "ResultStore",
    "SearchServer",
    "ServiceClient",
    "ServiceError",
    "ServiceTCPServer",
    "canonical_identity",
    "default_cache_dir",
    "probe",
    "result_key",
    "start_transport",
]
