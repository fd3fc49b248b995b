"""Native tier of the local-join kernels: build, cache and call ``_bandscan.c``.

The chunked interval kernel (:mod:`repro.local_join.kernels`) spends most of
its time expanding candidate pairs and masking them.  ``_bandscan.c`` fuses
both into one scan per chunk that writes only the survivors.  On first use
in a process the source is compiled with the local C compiler
(``gcc``/``cc``, plain ``-O2 -shared -fPIC``) into a per-user cache
directory and loaded through :mod:`ctypes`, which releases the GIL for the
length of each foreign call, so thread-pool workers scan in parallel.

The compiled library lives in ``$XDG_CACHE_HOME/repro-bandjoin`` (default
``~/.cache/repro-bandjoin``, mode 0700).  Its file name carries a hash of
the C source, the compiler binary and the Python platform tag, and it is
written as a temporary file plus an atomic rename, so pool processes that
build concurrently never load a torn file.  A cache directory or library
that another user owns, or that is group- or world-writable, is never
loaded.  Without a compiler, a usable cache directory or a successful
build, :func:`library` logs one warning and returns ``None``; the kernels
then run their numpy path, which stays the oracle the native scan is
tested against.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import stat
import subprocess
import sys
import sysconfig
import tempfile
import threading
from pathlib import Path

import numpy as np

from repro.obs.logconf import get_logger

__all__ = ["BandScan", "NativeLoader", "library"]

_log = get_logger(__name__)

SOURCE = Path(__file__).with_name("_bandscan.c")
#: Compilers tried in order; the first one on ``PATH`` builds the library.
COMPILERS = ("gcc", "cc")
CFLAGS = ("-O2", "-shared", "-fPIC")
COMPILE_TIMEOUT_S = 120

_I64 = ctypes.c_int64
_PTR = ctypes.c_void_p


def cache_dir() -> Path:
    """Per-user directory holding compiled libraries (outside any checkout).

    Raises :class:`OSError` when neither ``XDG_CACHE_HOME`` nor the home
    directory yields an absolute path (say, no ``HOME`` and a uid without a
    passwd entry), so the loader falls back instead of failing every join.
    """
    base = os.environ.get("XDG_CACHE_HOME", "")
    if os.path.isabs(base):  # a relative value is invalid per the XDG spec
        return Path(base) / "repro-bandjoin"
    try:
        home = Path.home()
    except (RuntimeError, KeyError) as exc:
        raise OSError(f"no home directory for the library cache ({exc})") from exc
    if not home.is_absolute():
        raise OSError(f"no home directory for the library cache (got {str(home)!r})")
    return home / ".cache" / "repro-bandjoin"


def find_compiler() -> str | None:
    """Return the path of the first available C compiler, or ``None``."""
    for name in COMPILERS:
        path = shutil.which(name)
        if path:
            return path
    return None


def library_name(source: bytes, compiler: str) -> str:
    """File name of the library built from ``source`` by ``compiler``."""
    real = os.path.realpath(compiler)
    info = os.stat(real)
    digest = hashlib.sha256()
    for part in (
        source,
        real.encode(),
        f"{info.st_size}:{info.st_mtime_ns}".encode(),
        " ".join(CFLAGS).encode(),
        sysconfig.get_platform().encode(),
        (sysconfig.get_config_var("SOABI") or sys.implementation.cache_tag or "").encode(),
    ):
        digest.update(part)
        digest.update(b"\0")
    return f"_bandscan-{digest.hexdigest()[:20]}.so"


def _check_private(path: Path) -> None:
    """Refuse a path another user owns or others may write to."""
    info = os.lstat(path)
    if stat.S_ISLNK(info.st_mode):
        raise OSError(f"{path} is a symbolic link")
    if info.st_uid != os.getuid():
        raise OSError(f"{path} is owned by uid {info.st_uid}, not {os.getuid()}")
    if info.st_mode & (stat.S_IWGRP | stat.S_IWOTH):
        raise OSError(f"{path} is group- or world-writable")


def _build(compiler: str, target: Path) -> None:
    """Compile ``SOURCE`` into ``target`` atomically (tmp file + rename)."""
    fd, tmp = tempfile.mkstemp(prefix=".build-", suffix=".so", dir=target.parent)
    os.close(fd)
    try:
        result = subprocess.run(
            [compiler, *CFLAGS, "-o", tmp, str(SOURCE)],
            capture_output=True,
            text=True,
            timeout=COMPILE_TIMEOUT_S,
        )
        if result.returncode != 0:
            detail = (result.stderr or result.stdout).strip().splitlines()
            raise OSError(
                f"{compiler} exited with status {result.returncode}"
                + (f": {detail[-1]}" if detail else "")
            )
        os.chmod(tmp, 0o700)
        os.replace(tmp, target)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


class BandScan:
    """Typed wrapper around the compiled ``repro_band_scan`` entry point."""

    def __init__(self, path: Path):
        self.path = path
        self._dll = ctypes.CDLL(str(path))
        fn = self._dll.repro_band_scan
        fn.argtypes = [
            _PTR, _PTR, _I64, _I64, _I64, _PTR, _PTR, _I64, _PTR, _I64,
            _PTR, _PTR, _I64, ctypes.c_int32, _I64, _PTR, _PTR,
        ]
        fn.restype = _I64
        self._fn = fn

    def scan(
        self,
        probe_side: np.ndarray,
        sorted_side: np.ndarray,
        start: int,
        window_lows: np.ndarray,
        window_counts: np.ndarray,
        total: int,
        slice_map: np.ndarray | None,
        lo: int,
        eps_left: np.ndarray,
        eps_right: np.ndarray,
        expand_dim: int,
        probe_is_s: bool,
        materialize: bool = True,
    ) -> tuple[int, np.ndarray | None, np.ndarray | None]:
        """Scan one chunk; return ``(kept, probe_pos, window_pos)``.

        ``window_lows``/``window_counts`` hold the windows of probe rows
        ``start, start + 1, ...``; ``total`` must equal their summed
        counts.  Window entries are positions in ``sorted_side``, or, when
        a slice map is given, indices into ``slice_map``, whose entry plus
        ``lo`` is the position.  Without ``materialize`` the positions come
        back as ``None``.
        """
        rows, d = probe_side.shape
        n = int(window_lows.shape[0])
        for name, arr in (("probe_side", probe_side), ("sorted_side", sorted_side)):
            if arr.dtype != np.float64 or not arr.flags.c_contiguous or arr.ndim != 2:
                raise ValueError(f"{name} must be a C-contiguous float64 matrix")
        if sorted_side.shape[1] != d or eps_left.shape[0] < d or eps_right.shape[0] < d:
            raise ValueError("sides and epsilon vectors disagree on dimensionality")
        if not (0 <= start and start + n <= rows and window_counts.shape[0] == n):
            raise ValueError("probe rows out of range")
        if not 0 <= expand_dim < d:
            raise ValueError("expand_dim out of range")
        window_lows = np.ascontiguousarray(window_lows, dtype=np.int64)
        window_counts = np.ascontiguousarray(window_counts, dtype=np.int64)
        eps_left = np.ascontiguousarray(eps_left, dtype=np.float64)
        eps_right = np.ascontiguousarray(eps_right, dtype=np.float64)
        if slice_map is None:
            limit = int(sorted_side.shape[0])
        else:
            # The map is an argsort of sorted_side[lo:lo + limit].
            slice_map = np.ascontiguousarray(slice_map, dtype=np.int64)
            limit = int(slice_map.shape[0])
            if not (0 <= lo and lo + limit <= sorted_side.shape[0]):
                raise ValueError("slice out of range")
        if materialize:
            out_probe = np.empty(total, dtype=np.int64)
            out_window = np.empty(total, dtype=np.int64)
            probe_ptr, window_ptr = out_probe.ctypes.data, out_window.ctypes.data
        else:
            out_probe = out_window = None
            probe_ptr = window_ptr = None
        kept = self._fn(
            probe_side.ctypes.data,
            sorted_side.ctypes.data,
            d,
            int(start),
            n,
            window_lows.ctypes.data,
            window_counts.ctypes.data,
            limit,
            None if slice_map is None else slice_map.ctypes.data,
            int(lo),
            eps_left.ctypes.data,
            eps_right.ctypes.data,
            int(expand_dim),
            1 if probe_is_s else 0,
            int(total),
            probe_ptr,
            window_ptr,
        )
        if kept < 0:
            raise RuntimeError("native band scan rejected its windows (out of range)")
        if not materialize:
            return int(kept), None, None
        return int(kept), out_probe[:kept], out_window[:kept]


class NativeLoader:
    """Builds and loads the native scan once; remembers a failure too.

    ``directory`` defaults to :func:`cache_dir`, ``compiler`` to
    :func:`find_compiler`; both are resolved at the first :meth:`get`.
    """

    def __init__(self, directory: Path | None = None, compiler: str | None = None):
        self._directory = directory
        self._compiler = compiler
        self._lock = threading.Lock()
        self._done = False
        self._scan: BandScan | None = None

    def get(self) -> BandScan | None:
        """The loaded scan, or ``None`` after one logged failure."""
        if self._done:
            return self._scan
        with self._lock:
            if not self._done:
                try:
                    self._scan = self._load()
                except (OSError, subprocess.SubprocessError) as exc:
                    _log.warning(
                        "native band-scan kernel unavailable (%s); "
                        "using the numpy kernel", exc,
                    )
                self._done = True
        return self._scan

    def _load(self) -> BandScan:
        compiler = self._compiler or find_compiler()
        if compiler is None:
            raise OSError(f"no C compiler found (tried {', '.join(COMPILERS)})")
        directory = self._directory or cache_dir()
        directory.mkdir(mode=0o700, parents=True, exist_ok=True)
        _check_private(directory)
        target = directory / library_name(SOURCE.read_bytes(), compiler)
        if not target.exists():
            _build(compiler, target)
        _check_private(target)
        return BandScan(target)


_LOADER = NativeLoader()


def _reset_lock_in_child() -> None:
    # A pool child forked while another thread was building would inherit
    # the held lock and block on its first kernel call.
    _LOADER._lock = threading.Lock()


os.register_at_fork(after_in_child=_reset_lock_in_child)


def library() -> BandScan | None:
    """The process-wide native scan, built on first use; ``None`` if unavailable."""
    return _LOADER.get()
