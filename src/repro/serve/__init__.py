"""``repro.serve`` — a concurrent compile-and-execute service.

Turns the single-shot reproduction pipeline (model → analysis → ranges →
codegen → VM) into a long-running system: an asyncio front-end speaking
line-delimited JSON (plus a minimal HTTP shim), a pool of worker
processes each with a warm table of ready VMs, a persistent content-addressed
artifact cache that lets a restarted server skip code generation
entirely, and a metrics registry with request counters, latency
histograms and cache hit rates.

Beyond one process, the same protocol scales out: ``frodo serve
--cluster N`` runs N shard servers behind a consistent-hashing router
(:mod:`repro.serve.router`) with a shared content-addressed artifact
store (:mod:`repro.serve.store`) so the fleet compiles each artifact —
including native ``.so``s — once.  See ``docs/serving.md`` and
``docs/cluster.md``.
"""

from repro.serve.cache import (Artifact, ArtifactCache, artifact_key,  # noqa: F401
                               model_fingerprint)
from repro.serve.metrics import (MetricsRegistry, merge_snapshots,  # noqa: F401
                                 render_snapshot)
from repro.serve.pool import PoolConfig, WorkerPool  # noqa: F401
from repro.serve.protocol import (ERROR_TYPES, OPS, PROTOCOL_VERSION,  # noqa: F401
                                  ServeError)
from repro.serve.server import (ReproServer, ServeConfig, ServerThread,  # noqa: F401
                                run_server)
from repro.serve.store import (HeatStore, LocalStore, RemoteStore,  # noqa: F401
                               SharedArtifactCache, StoreServer)


_LAZY = {
    "ServeClient": "repro.serve.client",
    "ServeRequestError": "repro.serve.client",
    "HashRing": "repro.serve.router",
    "RouterServer": "repro.serve.router",
    "RouterThread": "repro.serve.router",
    "ClusterConfig": "repro.serve.cluster",
    "ClusterSupervisor": "repro.serve.cluster",
}


def __getattr__(name: str):
    # Lazy so `python -m repro.serve.client` does not double-import the
    # client module (runpy would warn about the pre-imported copy), and
    # so importing repro.serve does not pull in asyncio router machinery
    # for plain single-server users.
    target = _LAZY.get(name)
    if target is not None:
        import importlib
        return getattr(importlib.import_module(target), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
