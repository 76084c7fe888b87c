"""Reusable shared-object execution of emitted C (``backend="native"``).

:mod:`repro.native.compile` is a one-shot harness: it bakes inputs into a
``main.c``, invokes the compiler, and forks a subprocess per run — fine
for validation, useless for serving traffic.  This module makes the
paper's own artifact (compiled C at ``-O3``) the serving fast path:

* the emitted translation unit is built **once** per (program content,
  compiler identity, flags) into ``<key>.so`` (``-fPIC -shared``);
* the library is loaded in-process with :mod:`ctypes` and only its
  ``<name>_run(nb, steps, init, bufs)`` entry is bound (ABI v3, see
  :func:`repro.codegen.ctext.emit_c`);
* ``bufs`` is a table of **zero-copy** pointers into the caller's
  C-contiguous numpy buffers (input, output, state, temp), built once
  per buffer set by :meth:`SharedProgram.bind` — no marshalling, no
  subprocess, no stdout parsing, and four arguments per call;
* state lives in the caller's arrays, not in the image, so any number
  of VMs and batch sizes share one loaded ``.so`` without sharing state;
* one call resets (``init``) and runs ``steps`` steps of ``nb``
  instances, with both loops in C.

Artifacts are content-addressed.  The key covers the program fingerprint
(:func:`repro.ir.vectorize.fingerprint`), the **compiler identity**
(resolved path + ``--version`` hash — a toolchain upgrade is a cache
miss, never a stale hit) and the exact flag tuple.  With a ``cache_dir``
(the serve layer passes its artifact cache's ``native_dir``) the ``.so``,
its source, and build metadata persist across processes: a restarted
server skips both code generation and the C compiler.  Without one, the
library is built in a private temp directory that is deleted right after
``dlopen`` (POSIX keeps the mapping alive).

Failure is loud: a missing compiler or failed build raises
:class:`~repro.errors.NativeToolchainError`.  There is no silent
fallback to another backend — benchmark columns must never lie.
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import os
import shutil
import subprocess
import tempfile
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Optional, Sequence

import numpy as np

from repro.codegen.ctext import RUN_PARAM_KINDS
from repro.errors import NativeToolchainError
from repro.ir.ops import BufferDecl, Program
from repro.obs import tracing

from repro.native.compile import (
    DEFAULT_FLAGS, CompilerIdentity, compiler_identity,
)

#: Flags that turn the translation unit into a loadable shared object.
SHARED_FLAGS: tuple[str, ...] = ("-fPIC", "-shared")

#: Bump when the emitted-C contract changes incompatibly (entry-point
#: names, signature order, init semantics); old cached ``.so`` files
#: become misses instead of ABI mismatches.
#: v2: added ``<name>_init_batch`` / ``<name>_step_batch`` entry points.
#: v3: one ``<name>_run(nb, steps, init, bufs)`` entry over caller state.
SHARED_ABI_VERSION = 3


def shared_cache_key(program_fingerprint: str, identity: CompilerIdentity,
                     flags: Sequence[str]) -> str:
    """Content address of one compiled shared object."""
    material = ":".join([
        f"abi{SHARED_ABI_VERSION}",
        program_fingerprint,
        identity.cache_token,
        ",".join(flags),
    ])
    return hashlib.sha256(material.encode()).hexdigest()


@dataclass(frozen=True)
class BuildInfo:
    """Provenance of a compiled shared object (persisted as JSON)."""

    key: str
    program_name: str
    program_fingerprint: str
    compiler_path: str
    compiler_version_hash: str
    flags: tuple[str, ...]
    abi_version: int = SHARED_ABI_VERSION

    def to_json(self) -> str:
        data = dict(self.__dict__)
        data["flags"] = list(self.flags)
        return json.dumps(data, indent=2, sort_keys=True) + "\n"


class SharedProgram:
    """A loaded ``.so`` with ``<name>_run`` bound to the program ABI.

    :meth:`bind` turns the caller's buffer mapping (name -> 1-D numpy
    array of ``nb`` instances) into a pointer table once; :meth:`run`
    then passes that table with no per-call conversion.  Buffers must be
    C-contiguous and dtype-exact; the VM's own buffers always are.
    """

    def __init__(self, program: Program, path: Path, *,
                 from_cache: bool, build_seconds: float,
                 info: BuildInfo):
        self.path = Path(path)
        self.from_cache = from_cache
        self.build_seconds = build_seconds
        self.info = info
        self._decls: list[BufferDecl] = [
            decl
            for kind in RUN_PARAM_KINDS
            for decl in program.buffers_of_kind(kind)
        ]
        try:
            self._lib = ctypes.CDLL(str(self.path))
            self._run = getattr(self._lib, f"{program.name}_run")
        except (OSError, AttributeError) as exc:
            raise NativeToolchainError(
                f"cannot load shared object {self.path}: {exc}") from exc
        self._run.restype = None
        self._run.argtypes = [ctypes.c_int64, ctypes.c_int64, ctypes.c_int64,
                              ctypes.POINTER(ctypes.c_void_p)]

    def bind(self, buffers: Mapping[str, np.ndarray], nb: int = 1):
        """Pointer table for :meth:`run` over fixed arrays.

        ``buffers`` maps each input/output/state/temp buffer name to a
        flat C-contiguous array of ``nb`` consecutive instances
        (``nb * max(size, 1)`` elements).  The table holds raw addresses:
        the caller keeps the arrays alive, unmoved, while it uses it.
        """
        pointers = []
        for decl in self._decls:
            arr = buffers[decl.name]
            expected = nb * max(decl.size, 1)
            if not isinstance(arr, np.ndarray) or arr.dtype != decl.dtype \
                    or not arr.flags["C_CONTIGUOUS"] \
                    or arr.size != expected:
                raise NativeToolchainError(
                    f"buffer {decl.name!r} must be a C-contiguous "
                    f"{decl.dtype} array of {expected} elements "
                    f"({nb} instances)")
            pointers.append(arr.ctypes.data)
        return (ctypes.c_void_p * len(pointers))(*pointers)

    def run(self, nb: int, steps: int, init: bool, table) -> None:
        """Reset each of ``nb`` instances when ``init`` is set, then run
        ``steps`` steps of each, over a table from :meth:`bind`."""
        self._run(nb, steps, init, table)


def _build_so(program: Program, source: str, compiler: str,
              flags: Sequence[str], out_path: Path) -> None:
    """Compile ``source`` into ``out_path`` (raises on any failure)."""
    workdir = Path(tempfile.mkdtemp(prefix="repro_so_"))
    try:
        src = workdir / f"{program.name}.c"
        so_tmp = workdir / f"{program.name}.so"
        src.write_text(source)
        cmd = [compiler, *flags, *SHARED_FLAGS, "-o", str(so_tmp),
               str(src), "-lm"]
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=600)
        except FileNotFoundError as exc:
            raise NativeToolchainError(
                f"compiler {compiler!r} not found") from exc
        except subprocess.SubprocessError as exc:
            raise NativeToolchainError(
                f"shared-object build failed ({' '.join(cmd)}): {exc}"
            ) from exc
        if proc.returncode != 0:
            raise NativeToolchainError(
                f"shared-object build failed ({' '.join(cmd)}):\n"
                f"{proc.stderr}")
        out_path.parent.mkdir(parents=True, exist_ok=True)
        # Atomic install: racing builders overwrite each other with
        # identical bytes, and readers never see a torn file.
        fd, tmp = tempfile.mkstemp(dir=out_path.parent, suffix=".so.tmp")
        os.close(fd)
        shutil.copyfile(so_tmp, tmp)
        os.replace(tmp, out_path)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _cache_paths(cache_dir: Path, key: str) -> tuple[Path, Path, Path]:
    shard = cache_dir / key[:2]
    return (shard / f"{key}.so", shard / f"{key}.c", shard / f"{key}.json")


def _atomic_write_text(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


# In-process registry of loaded libraries, keyed by content address.
# Loading is idempotent (dlopen refcounts one image per path), but a
# registry hit also skips re-emitting C and re-probing the disk cache.
_LOADED: dict[str, SharedProgram] = {}
_LOADED_MAX = 64
_LOADED_LOCK = threading.Lock()
_LOADED_STATS = {"hits": 0, "builds": 0, "disk_hits": 0}


def load_shared_program(program: Program, cc: Optional[str] = None,
                        flags: Sequence[str] = DEFAULT_FLAGS,
                        cache_dir: "str | os.PathLike | None" = None,
                        ) -> SharedProgram:
    """Compile-once, load-in-process execution image for ``program``.

    Resolution order: in-process registry -> on-disk ``cache_dir``
    (warm: skips codegen **and** the C compiler) -> fresh build (cold).
    Raises :class:`NativeToolchainError` when no compiler is available
    or the build fails — callers must surface that as a typed error, not
    fall back silently.
    """
    import time

    from repro.codegen.ctext import emit_c
    from repro.ir.vectorize import fingerprint

    identity = compiler_identity(cc)
    flags = tuple(flags)
    program_fp = fingerprint(program)
    key = shared_cache_key(program_fp, identity, flags)

    with _LOADED_LOCK:
        cached = _LOADED.pop(key, None)
        if cached is not None:
            _LOADED_STATS["hits"] += 1
            _LOADED[key] = cached  # refresh LRU position
            return cached

    info = BuildInfo(
        key=key,
        program_name=program.name,
        program_fingerprint=program_fp,
        compiler_path=identity.path,
        compiler_version_hash=identity.version_hash,
        flags=flags,
    )

    t0 = time.perf_counter()
    if cache_dir is not None:
        so_path, c_path, json_path = _cache_paths(Path(cache_dir), key)
        if so_path.exists():
            with tracing.span("native.load", program=program.name,
                              key=key[:12], source="disk"):
                shared = SharedProgram(
                    program, so_path, from_cache=True,
                    build_seconds=time.perf_counter() - t0, info=info)
            with _LOADED_LOCK:
                _LOADED_STATS["disk_hits"] += 1
                _LOADED[key] = shared
                while len(_LOADED) > _LOADED_MAX:
                    del _LOADED[next(iter(_LOADED))]
            return shared
        with tracing.span("native.compile", program=program.name,
                          key=key[:12], compiler=identity.path):
            source = emit_c(program)
            _build_so(program, source, identity.path, flags, so_path)
        _atomic_write_text(c_path, source)
        _atomic_write_text(json_path, info.to_json())
        shared = SharedProgram(program, so_path, from_cache=False,
                               build_seconds=time.perf_counter() - t0,
                               info=info)
    else:
        # No persistent store: build in a private temp dir and unlink it
        # immediately after dlopen (POSIX keeps the mapping valid).
        tmp_dir = Path(tempfile.mkdtemp(prefix="repro_so_load_"))
        try:
            so_path = tmp_dir / f"{program.name}.so"
            with tracing.span("native.compile", program=program.name,
                              key=key[:12], compiler=identity.path):
                _build_so(program, emit_c(program), identity.path, flags,
                          so_path)
            shared = SharedProgram(program, so_path, from_cache=False,
                                   build_seconds=time.perf_counter() - t0,
                                   info=info)
        finally:
            shutil.rmtree(tmp_dir, ignore_errors=True)

    with _LOADED_LOCK:
        _LOADED_STATS["builds"] += 1
        _LOADED[key] = shared
        while len(_LOADED) > _LOADED_MAX:
            del _LOADED[next(iter(_LOADED))]
    return shared


def clear_shared_program_cache() -> None:
    """Drop the in-process registry (loaded images stay mapped until the
    last referencing VM is garbage-collected)."""
    with _LOADED_LOCK:
        _LOADED.clear()


def shared_program_stats() -> dict[str, int]:
    with _LOADED_LOCK:
        return {**_LOADED_STATS, "entries": len(_LOADED)}
