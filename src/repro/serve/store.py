"""Shared content-addressed artifact store for sharded serving.

The cache keys in :mod:`repro.serve.cache` are location-independent by
construction — ``sha256(model_fp : generator : backend : fuse)`` names
the same bytes on every box — so scaling the cache out is a transport
problem, not a keying problem.  This module supplies that transport:

* :class:`LocalStore` — flat content-addressed blob directory
  (``<root>/<kind>/<aa>/<key>.blob``), atomic writes, three blob kinds:
  ``artifact`` (pickled compile results), ``native`` (packed ``.so``
  bundles: shared object + C source + build metadata), and ``heat``
  (JSON per-fingerprint adaptive-tier heat snapshots);
* :class:`StoreServer` / :class:`RemoteStore` — a tiny NDJSON-over-TCP
  get/put/has/stat protocol (blobs ride base64) so N shard processes
  share one store;
* :class:`SharedArtifactCache` — an :class:`~repro.serve.cache.ArtifactCache`
  with a **local overlay**: reads check the local directory first, fall
  through to the remote store (validating and re-materializing locally),
  and writes publish back, so the fleet compiles each distinct
  fingerprint once and every shard still serves hot keys from its own
  disk;
* :class:`HeatStore` — per-fingerprint heat persistence next to the
  artifacts, letting a shard that inherits a slice after a re-hash start
  from observed heat instead of cold (see :mod:`repro.serve.adaptive`).

A corrupted remote blob is **never served**: deserialization happens
before the overlay write, failures count as misses, and the caller
recompiles locally (its eventual ``put`` overwrites the bad remote
entry with good bytes).
"""

from __future__ import annotations

import base64
import hashlib
import io
import json
import os
import pickle
import re
import socket
import socketserver
import tempfile
import threading
from pathlib import Path
from typing import Optional

from repro.serve.cache import ARTIFACT_VERSION, Artifact, ArtifactCache

#: Blob namespaces the store accepts.
STORE_KINDS = ("artifact", "native", "heat")

#: Keys are hex digests — anything else is rejected before it can touch
#: the filesystem (no path traversal by construction).
_KEY_RE = re.compile(r"^[0-9a-f]{8,128}$")

#: Bump when the packed native-bundle layout changes.
NATIVE_BUNDLE_VERSION = 1

#: One request or response line on the store protocol (native bundles
#: carry whole ``.so`` files as base64).
STORE_MAX_LINE = 64 * 1024 * 1024


class StoreError(Exception):
    """A store operation failed (network, protocol, or invalid input)."""


def _check(kind: str, key: str) -> None:
    if kind not in STORE_KINDS:
        raise StoreError(f"unknown blob kind {kind!r}; "
                         f"expected one of {STORE_KINDS}")
    if not isinstance(key, str) or not _KEY_RE.match(key):
        raise StoreError(f"invalid store key {key!r} (need lowercase hex)")


class LocalStore:
    """Content-addressed blob directory: ``<root>/<kind>/<aa>/<key>.blob``."""

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def path(self, kind: str, key: str) -> Path:
        _check(kind, key)
        return self.root / kind / key[:2] / f"{key}.blob"

    def get(self, kind: str, key: str) -> Optional[bytes]:
        try:
            return self.path(kind, key).read_bytes()
        except OSError:
            return None

    def put(self, kind: str, key: str, blob: bytes) -> None:
        path = self.path(kind, key)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(blob)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def has(self, kind: str, key: str) -> bool:
        return self.path(kind, key).exists()

    def stat(self) -> dict:
        out: dict = {}
        for kind in STORE_KINDS:
            count = size = 0
            for path in self.root.glob(f"{kind}/*/*.blob"):
                try:
                    size += path.stat().st_size
                    count += 1
                except OSError:
                    pass
            out[kind] = {"count": count, "bytes": size}
        return out


# -- wire protocol -------------------------------------------------------------


def _encode_msg(obj: dict) -> bytes:
    return (json.dumps(obj, separators=(",", ":")) + "\n").encode()


class _StoreHandler(socketserver.StreamRequestHandler):
    """One store connection: NDJSON request per line, response per line."""

    def handle(self) -> None:  # noqa: D102 — socketserver contract
        server: StoreServer = self.server  # type: ignore[assignment]
        while True:
            try:
                line = self.rfile.readline(STORE_MAX_LINE)
            except OSError:
                return
            if not line:
                return
            try:
                resp = server.serve_one(line)
            except Exception as exc:  # noqa: BLE001 — conn must survive
                resp = {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
            try:
                self.wfile.write(_encode_msg(resp))
            except OSError:
                return


class StoreServer(socketserver.ThreadingTCPServer):
    """Threaded TCP front-end over a :class:`LocalStore`.

    One thread per connection; the store's atomic-rename writes make
    concurrent puts of the same key safe (last writer wins with
    identical bytes — keys are content addresses).
    """

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, root: str | Path, host: str = "127.0.0.1",
                 port: int = 0):
        self.store = LocalStore(root)
        self._counts_lock = threading.Lock()
        self.counts = {"get": 0, "get_hit": 0, "put": 0, "has": 0,
                       "stat": 0, "errors": 0}
        self._thread: threading.Thread | None = None
        super().__init__((host, port), _StoreHandler)

    @property
    def port(self) -> int:
        return self.server_address[1]

    @property
    def address(self) -> str:
        return f"{self.server_address[0]}:{self.server_address[1]}"

    def _count(self, name: str) -> None:
        with self._counts_lock:
            self.counts[name] = self.counts.get(name, 0) + 1

    def serve_one(self, line: bytes) -> dict:
        try:
            req = json.loads(line)
        except ValueError as exc:
            self._count("errors")
            return {"ok": False, "error": f"bad json: {exc}"}
        if not isinstance(req, dict):
            self._count("errors")
            return {"ok": False, "error": "request must be an object"}
        op = req.get("op")
        if op == "stat":
            self._count("stat")
            return {"ok": True, "kinds": self.store.stat(),
                    "counts": dict(self.counts)}
        kind, key = req.get("kind", ""), req.get("key", "")
        try:
            _check(kind, key)
        except StoreError as exc:
            self._count("errors")
            return {"ok": False, "error": str(exc)}
        if op == "get":
            self._count("get")
            blob = self.store.get(kind, key)
            if blob is None:
                return {"ok": True, "found": False}
            self._count("get_hit")
            return {"ok": True, "found": True,
                    "blob": base64.b64encode(blob).decode()}
        if op == "put":
            self._count("put")
            try:
                blob = base64.b64decode(req.get("blob", ""), validate=True)
            except (ValueError, TypeError) as exc:
                self._count("errors")
                return {"ok": False, "error": f"bad blob encoding: {exc}"}
            self.store.put(kind, key, blob)
            return {"ok": True, "stored": len(blob)}
        if op == "has":
            self._count("has")
            return {"ok": True, "found": self.store.has(kind, key)}
        self._count("errors")
        return {"ok": False, "error": f"unknown store op {op!r}"}

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "StoreServer":
        """Serve on a background thread; returns self (port is bound)."""
        self._thread = threading.Thread(target=self.serve_forever,
                                        daemon=True, name="repro-store")
        self._thread.start()
        return self

    def stop(self) -> None:
        self.shutdown()
        if self._thread is not None:
            self._thread.join(timeout=10)
        self.server_close()


class RemoteStore:
    """Blocking client for one :class:`StoreServer` (thread-safe).

    Keeps a small pool of persistent connections; a connection that
    errors is discarded and the request retried once on a fresh one, so
    a store restart is invisible to shards.
    """

    def __init__(self, host: str, port: int, timeout: float = 10.0,
                 max_conns: int = 4):
        self.host = host
        self.port = port
        self.timeout = timeout
        self.max_conns = max_conns
        self._lock = threading.Lock()
        self._free: list[tuple[socket.socket, io.BufferedReader]] = []

    @classmethod
    def parse(cls, address: str, timeout: float = 10.0) -> "RemoteStore":
        """Build from a ``host:port`` string (the ``--store`` flag)."""
        host, _, port = address.rpartition(":")
        if not host or not port.isdigit():
            raise StoreError(f"store address must be host:port, "
                             f"got {address!r}")
        return cls(host, int(port), timeout=timeout)

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    def _acquire(self) -> tuple[socket.socket, io.BufferedReader]:
        with self._lock:
            if self._free:
                return self._free.pop()
        sock = socket.create_connection((self.host, self.port),
                                        timeout=self.timeout)
        return sock, sock.makefile("rb")

    def _release(self, conn: tuple[socket.socket, io.BufferedReader]) -> None:
        with self._lock:
            if len(self._free) < self.max_conns:
                self._free.append(conn)
                return
        self._discard(conn)

    @staticmethod
    def _discard(conn: tuple[socket.socket, io.BufferedReader]) -> None:
        sock, reader = conn
        for closer in (reader.close, sock.close):
            try:
                closer()
            except OSError:
                pass

    def close(self) -> None:
        with self._lock:
            conns, self._free = self._free, []
        for conn in conns:
            self._discard(conn)

    def _request(self, req: dict) -> dict:
        last: Exception | None = None
        for _ in range(2):  # one retry on a stale pooled connection
            try:
                conn = self._acquire()
            except OSError as exc:
                last = exc
                continue
            sock, reader = conn
            try:
                sock.sendall(_encode_msg(req))
                line = reader.readline(STORE_MAX_LINE)
                if not line:
                    raise StoreError("store closed the connection")
                resp = json.loads(line)
            except (OSError, ValueError, StoreError) as exc:
                self._discard(conn)
                last = exc
                continue
            self._release(conn)
            if not isinstance(resp, dict) or not resp.get("ok"):
                error = resp.get("error", "?") if isinstance(resp, dict) \
                    else "malformed response"
                raise StoreError(f"store error: {error}")
            return resp
        raise StoreError(f"store at {self.address} unreachable: {last}")

    # -- operations --------------------------------------------------------

    def get(self, kind: str, key: str) -> Optional[bytes]:
        _check(kind, key)
        resp = self._request({"op": "get", "kind": kind, "key": key})
        if not resp.get("found"):
            return None
        try:
            return base64.b64decode(resp.get("blob", ""), validate=True)
        except (ValueError, TypeError) as exc:
            raise StoreError(f"store returned undecodable blob: {exc}")

    def put(self, kind: str, key: str, blob: bytes) -> None:
        _check(kind, key)
        self._request({"op": "put", "kind": kind, "key": key,
                       "blob": base64.b64encode(blob).decode()})

    def has(self, kind: str, key: str) -> bool:
        _check(kind, key)
        return bool(self._request({"op": "has", "kind": kind,
                                   "key": key}).get("found"))

    def stat(self) -> dict:
        return self._request({"op": "stat"})


# -- artifact / native packing -------------------------------------------------


def pack_artifact(artifact: Artifact) -> bytes:
    """Serialize an artifact exactly as the on-disk cache stores it."""
    buf = io.BytesIO()
    pickle.dump((ARTIFACT_VERSION, artifact), buf,
                protocol=pickle.HIGHEST_PROTOCOL)
    return buf.getvalue()


def unpack_artifact(blob: bytes) -> Optional[Artifact]:
    """Deserialize and validate; None for corrupt or version-skewed bytes."""
    try:
        version, artifact = pickle.loads(blob)
        if version != ARTIFACT_VERSION or not isinstance(artifact, Artifact):
            return None
    except Exception:  # noqa: BLE001 — any bad bytes are a miss
        return None
    return artifact


def pack_native(so_bytes: bytes, c_source: str, info_json: str) -> bytes:
    buf = io.BytesIO()
    pickle.dump((NATIVE_BUNDLE_VERSION,
                 {"so": so_bytes, "c": c_source, "info": info_json}),
                buf, protocol=pickle.HIGHEST_PROTOCOL)
    return buf.getvalue()


def unpack_native(blob: bytes) -> Optional[dict]:
    try:
        version, bundle = pickle.loads(blob)
        if version != NATIVE_BUNDLE_VERSION or not isinstance(bundle, dict) \
                or not isinstance(bundle.get("so"), bytes):
            return None
    except Exception:  # noqa: BLE001
        return None
    return bundle


# -- heat persistence ----------------------------------------------------------


def heat_key(program_fp: str, fuse: bool) -> str:
    """Content address of one fingerprint's persisted heat record."""
    return hashlib.sha256(
        f"heat:{program_fp}:fuse={int(bool(fuse))}".encode()).hexdigest()


class HeatStore:
    """Per-fingerprint heat records over any get/put backend.

    Backed by either a :class:`RemoteStore` (cluster mode: heat lives
    next to the shared artifacts) or a :class:`LocalStore` (single
    server: ``<cache_dir>/heat/``).  All failures are soft — heat is an
    optimization hint, never worth failing a request over.
    """

    def __init__(self, backend):
        self.backend = backend
        self.errors = 0

    def load(self, program_fp: str, fuse: bool) -> Optional[dict]:
        try:
            blob = self.backend.get("heat", heat_key(program_fp, fuse))
            if blob is None:
                return None
            payload = json.loads(blob)
            return payload if isinstance(payload, dict) else None
        except (StoreError, ValueError, OSError):
            self.errors += 1
            return None

    def save(self, program_fp: str, fuse: bool, payload: dict) -> bool:
        try:
            self.backend.put("heat", heat_key(program_fp, fuse),
                             json.dumps(payload).encode())
            return True
        except (StoreError, TypeError, ValueError, OSError):
            self.errors += 1
            return False


# -- the shard-side cache ------------------------------------------------------


class SharedArtifactCache(ArtifactCache):
    """Artifact cache with a remote read-through/publish tier.

    ``get``: local overlay first (hot path, no network), then the remote
    store — a valid remote blob is re-materialized into the overlay (so
    the *next* request is local) and reported as a hit; a corrupt remote
    blob is counted and treated as a miss, never served.

    ``put``: writes the overlay, then best-effort publishes to the
    remote store — a store outage degrades the fleet to per-shard
    caching instead of failing requests.

    ``backend="native"`` ``.so`` bundles ride the same store (see
    :meth:`fetch_native` / :meth:`publish_native`): the first shard to
    compile a program publishes the shared object, and every other
    shard's "compile" becomes a download + dlopen.
    """

    def __init__(self, root: str | Path, remote: RemoteStore):
        super().__init__(root)
        self.remote = remote
        with self._lock:
            self._stats.update(remote_hits=0, remote_errors=0,
                               remote_publishes=0, native_fetched=0,
                               native_published=0)

    def heat_store(self) -> HeatStore:
        return HeatStore(self.remote)

    # -- artifacts ---------------------------------------------------------

    def get(self, key: str) -> Optional[Artifact]:
        path = self._path(key)
        try:
            blob = path.read_bytes()
        except OSError:
            blob = None
        if blob is not None:
            artifact = unpack_artifact(blob)
            if artifact is not None:
                self._count("hits")
                return artifact
            self._count("errors")
            try:
                path.unlink()
            except OSError:
                pass
        try:
            remote_blob = self.remote.get("artifact", key)
        except StoreError:
            self._count("remote_errors")
            remote_blob = None
        if remote_blob is not None:
            artifact = unpack_artifact(remote_blob)
            if artifact is not None:
                # Re-materialize into the overlay so the next request for
                # this key never leaves the shard.
                super().put(key, artifact)
                with self._lock:
                    self._stats["puts"] -= 1  # internal copy, not a user put
                    self._stats["hits"] += 1
                    self._stats["remote_hits"] += 1
                return artifact
            self._count("remote_errors")
        self._count("misses")
        return None

    def put(self, key: str, artifact: Artifact) -> None:
        super().put(key, artifact)
        try:
            self.remote.put("artifact", key, pack_artifact(artifact))
            self._count("remote_publishes")
        except StoreError:
            self._count("remote_errors")

    # -- native .so bundles ------------------------------------------------

    def native_key(self, program, fuse: bool) -> Optional[str]:
        """Shared-object store key for ``program`` as the VM builds it.

        Mirrors the VM's native pipeline exactly (fuse, then physical
        window lowering) so the key matches what
        :func:`repro.native.sharedlib.load_shared_program` computes; pass
        ``fuse=False`` for a program that is already fused.  Returns None
        when no toolchain is available.
        """
        from repro.errors import NativeToolchainError
        from repro.ir.fuse import fuse_program, lower_windows
        from repro.ir.vectorize import fingerprint
        from repro.native.compile import DEFAULT_FLAGS, compiler_identity
        from repro.native.sharedlib import shared_cache_key
        try:
            identity = compiler_identity(None)
        except NativeToolchainError:
            return None
        if fuse:
            program, _ = fuse_program(program)
        return shared_cache_key(fingerprint(lower_windows(program)),
                                identity, tuple(DEFAULT_FLAGS))

    def _so_paths(self, key: str):
        from repro.native.sharedlib import _cache_paths
        return _cache_paths(self.native_dir, key)

    def fetch_native(self, key: Optional[str]) -> str:
        """Materialize the remote ``.so`` bundle for ``key`` locally if we
        lack it.

        Returns ``"local"`` (already on disk), ``"fetched"`` (downloaded
        from the store), ``"miss"`` (store lacks it — caller compiles),
        ``"unavailable"`` (no toolchain: ``key`` is None) or ``"error"``.
        Serve calls it only when it builds a native VM, so a warm request
        never reaches the store.
        """
        if key is None:
            return "unavailable"
        so_path, c_path, json_path = self._so_paths(key)
        if so_path.exists():
            return "local"
        try:
            blob = self.remote.get("native", key)
        except StoreError:
            self._count("remote_errors")
            return "error"
        if blob is None:
            return "miss"
        bundle = unpack_native(blob)
        if bundle is None:
            self._count("remote_errors")
            return "miss"
        so_path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=so_path.parent, suffix=".so.tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(bundle["so"])
            os.replace(tmp, so_path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        for path, text in ((c_path, bundle.get("c")),
                           (json_path, bundle.get("info"))):
            if isinstance(text, str):
                from repro.native.sharedlib import _atomic_write_text
                _atomic_write_text(path, text)
        self._count("native_fetched")
        return "fetched"

    def publish_native(self, key: Optional[str]) -> bool:
        """Publish this shard's compiled ``.so`` for ``key`` (if any) to
        the store.

        Called after a native VM is built; one has/put exchange per call.
        Returns True when this call uploaded the bundle.  A failure
        during a store outage is retried the next time the key is built.
        """
        if key is None:
            return False
        so_path, c_path, json_path = self._so_paths(key)
        if not so_path.exists():
            return False
        try:
            if self.remote.has("native", key):
                return False
            self.remote.put("native", key, pack_native(
                so_path.read_bytes(),
                c_path.read_text() if c_path.exists() else "",
                json_path.read_text() if json_path.exists() else ""))
        except (StoreError, OSError):
            self._count("remote_errors")
            return False
        self._count("native_published")
        return True
