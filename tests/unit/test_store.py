"""Unit tests for the shared artifact store and the shard-side cache.

Covers the satellite contract verbatim: remote miss → local overlay
publish → a second shard's read-through skips codegen entirely; a
corrupted remote artifact falls back to a local recompile and is never
served.
"""

import pickle

import pytest

from repro.serve.cache import artifact_key
from repro.serve.store import (HeatStore, LocalStore, RemoteStore,
                               SharedArtifactCache, StoreError, StoreServer,
                               heat_key, pack_artifact, pack_native,
                               unpack_artifact, unpack_native)
from tests.unit.test_serve_cache import _make_artifact


@pytest.fixture()
def store_server(tmp_path):
    server = StoreServer(tmp_path / "store")
    server.start()
    yield server
    server.stop()


@pytest.fixture()
def remote(store_server):
    return RemoteStore.parse(store_server.address)


class TestLocalStore:
    def test_put_get_roundtrip(self, tmp_path):
        store = LocalStore(tmp_path)
        assert store.get("artifact", "ab" * 16) is None
        store.put("artifact", "ab" * 16, b"payload")
        assert store.get("artifact", "ab" * 16) == b"payload"
        assert store.has("artifact", "ab" * 16)
        assert store.stat()["artifact"] == {"count": 1, "bytes": 7}

    def test_rejects_bad_kind_and_key(self, tmp_path):
        store = LocalStore(tmp_path)
        with pytest.raises(StoreError):
            store.put("sneaky", "ab" * 16, b"x")
        with pytest.raises(StoreError):
            store.put("artifact", "../../etc/passwd", b"x")
        with pytest.raises(StoreError):
            store.get("artifact", "UPPER" * 8)

    def test_kinds_are_separate_namespaces(self, tmp_path):
        store = LocalStore(tmp_path)
        store.put("artifact", "cd" * 16, b"one")
        assert store.get("native", "cd" * 16) is None


class TestRemoteStore:
    def test_roundtrip_over_tcp(self, remote):
        key = "12" * 16
        assert remote.get("artifact", key) is None
        assert not remote.has("artifact", key)
        remote.put("artifact", key, b"\x00\x01binary\xff")
        assert remote.get("artifact", key) == b"\x00\x01binary\xff"
        assert remote.has("artifact", key)
        assert remote.stat()["kinds"]["artifact"]["count"] == 1

    def test_parse(self):
        store = RemoteStore.parse("127.0.0.1:7777")
        assert (store.host, store.port) == ("127.0.0.1", 7777)

    def test_server_counts(self, store_server, remote):
        remote.put("artifact", "ef" * 16, b"x")
        remote.get("artifact", "ef" * 16)
        remote.get("artifact", "00" * 16)
        assert store_server.counts["put"] == 1
        assert store_server.counts["get"] == 2
        assert store_server.counts["get_hit"] == 1

    def test_unreachable_raises_store_error(self):
        dead = RemoteStore("127.0.0.1", 1, timeout=0.5)
        with pytest.raises(StoreError):
            dead.get("artifact", "ab" * 16)


class TestPacking:
    def test_artifact_roundtrip(self):
        _, artifact = _make_artifact()
        blob = pack_artifact(artifact)
        back = unpack_artifact(blob)
        assert back is not None
        assert back.model_fingerprint == artifact.model_fingerprint
        assert back.model_name == artifact.model_name

    def test_artifact_corrupt_is_none(self):
        assert unpack_artifact(b"junk") is None
        assert unpack_artifact(pickle.dumps((999, "wrong"))) is None

    def test_native_roundtrip(self):
        blob = pack_native(b"\x7fELF...", "int main(){}", "{\"flags\": []}")
        bundle = unpack_native(blob)
        assert bundle is not None
        assert bundle["so"] == b"\x7fELF..."
        assert bundle["c"] == "int main(){}"

    def test_native_corrupt_is_none(self):
        assert unpack_native(b"nope") is None


class TestSharedArtifactCache:
    def _key(self, artifact):
        return artifact_key(artifact.model_fingerprint,
                            artifact.generator, artifact.backend)

    def test_put_publishes_and_second_shard_reads_through(
            self, tmp_path, remote):
        """The satellite contract: shard A's put lands in the store, and
        shard B (different overlay) serves the artifact without any
        codegen of its own — its first ``get`` is a hit."""
        _, artifact = _make_artifact()
        key = self._key(artifact)
        shard_a = SharedArtifactCache(tmp_path / "a", remote)
        shard_b = SharedArtifactCache(tmp_path / "b", remote)

        assert shard_a.get(key) is None  # genuinely cold fleet-wide
        shard_a.put(key, artifact)
        assert shard_a.stats()["remote_publishes"] == 1

        fetched = shard_b.get(key)
        assert fetched is not None
        assert fetched.model_fingerprint == artifact.model_fingerprint
        stats = shard_b.stats()
        assert stats["misses"] == 0  # read-through is a hit, not a miss
        assert stats["hits"] == 1
        assert stats["remote_hits"] == 1
        # Read-through materialized the overlay: the next get is local.
        shard_b.remote = RemoteStore("127.0.0.1", 1, timeout=0.2)
        assert shard_b.get(key) is not None

    def test_corrupt_remote_artifact_never_served(self, tmp_path, remote):
        """A corrupted store blob is a miss (caller recompiles locally),
        counted, and never materialized into the overlay."""
        _, artifact = _make_artifact()
        key = self._key(artifact)
        remote.put("artifact", key, b"corrupted bytes, not a pickle")
        cache = SharedArtifactCache(tmp_path / "shard", remote)
        assert cache.get(key) is None
        assert cache.stats()["remote_errors"] == 1
        # The local recompile path still works and republishes a good copy.
        cache.put(key, artifact)
        assert unpack_artifact(remote.get("artifact", key)) is not None

    def test_remote_outage_degrades_to_local(self, tmp_path):
        _, artifact = _make_artifact()
        key = self._key(artifact)
        cache = SharedArtifactCache(
            tmp_path, RemoteStore("127.0.0.1", 1, timeout=0.2))
        assert cache.get(key) is None
        cache.put(key, artifact)  # publish fails softly
        assert cache.stats()["remote_errors"] >= 1
        assert cache.get(key) is not None  # overlay still serves


class TestNativeExchange:
    def test_so_crosses_shards_on_misses_only(self, tmp_path, remote):
        from repro.native import find_compiler
        from repro.native.sharedlib import clear_shared_program_cache
        from repro.serve.handlers import handle_request
        if find_compiler() is None:
            pytest.skip("no C compiler on PATH")
        # A process-wide loaded image would skip writing shard A's .so.
        clear_shared_program_cache()
        req = {"op": "run", "model": "Motivating", "backend": "native",
               "include_outputs": False}
        shard_a = SharedArtifactCache(tmp_path / "a", remote)
        _, meta = handle_request(req, shard_a)
        assert meta["native_store"] == "published"  # built here, shared
        shard_b = SharedArtifactCache(tmp_path / "b", remote)
        _, meta = handle_request(req, shard_b)
        assert meta["native_store"] == "fetched"  # a download, no gcc
        # A warm hit never reaches the store, even when it is gone.
        shard_b.remote = RemoteStore("127.0.0.1", 1, timeout=0.2)
        _, meta = handle_request(req, shard_b)
        assert meta["vm_cache"] == "hit" and "native_store" not in meta
        assert shard_b.stats()["remote_errors"] == 0


class TestHeatStore:
    def test_roundtrip_local(self, tmp_path):
        heat = HeatStore(LocalStore(tmp_path))
        assert heat.load("f" * 32, True) is None
        heat.save("f" * 32, True, {"heat": 12.5, "invocations": 3})
        record = heat.load("f" * 32, True)
        assert record == {"heat": 12.5, "invocations": 3}

    def test_roundtrip_remote(self, remote):
        heat = HeatStore(remote)
        heat.save("a" * 32, False, {"heat": 1.0})
        assert heat.load("a" * 32, False) == {"heat": 1.0}

    def test_key_separates_fuse(self):
        assert heat_key("f" * 32, True) != heat_key("f" * 32, False)

    def test_failures_are_soft(self):
        heat = HeatStore(RemoteStore("127.0.0.1", 1, timeout=0.2))
        assert heat.load("b" * 32, True) is None
        assert heat.save("b" * 32, True, {"heat": 1.0}) is False
        assert heat.errors == 2
