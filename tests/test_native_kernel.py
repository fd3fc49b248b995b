"""The native band-scan tier: loaded whenever a compiler exists, a logged
fallback when the build fails, and one shared library across pool children."""

from __future__ import annotations

import logging
import os
import shutil
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from repro.core.recpart import RecPartPartitioner
from repro.data.generators import pareto_relation
from repro.engine import ParallelJoinEngine
from repro.geometry.band import BandCondition
from repro.local_join import kernels, native
from repro.local_join.base import canonical_pair_order
from repro.local_join.nested_loop import NestedLoopJoin
from repro.local_join.sort_band import SortSweepJoin

COMPILER = shutil.which("gcc") or shutil.which("cc")
requires_compiler = pytest.mark.skipif(COMPILER is None, reason="no C compiler")


def _inputs(rows=400, seed=5):
    rng = np.random.default_rng(seed)
    s = rng.uniform(0, 1, size=(rows, 2))
    t = rng.uniform(0, 1, size=(rows, 2))
    return s, t, BandCondition.symmetric(["A1", "A2"], 0.05)


class _Records(logging.Handler):
    def __init__(self):
        super().__init__(logging.DEBUG)
        self.records: list[logging.LogRecord] = []

    def emit(self, record):
        self.records.append(record)


@pytest.fixture
def native_log():
    """Capture the native loader's log records (the ``repro`` logger may
    stop propagation once the CLI has configured logging)."""
    logger = logging.getLogger(native.__name__)
    handler = _Records()
    logger.addHandler(handler)
    try:
        yield handler.records
    finally:
        logger.removeHandler(handler)


def test_native_tier_loads_whenever_a_compiler_exists():
    assert kernels.native_available() == (COMPILER is not None)
    if COMPILER is not None:
        path = native.library().path
        assert path.name.startswith("_bandscan-") and path.suffix == ".so"
        assert not os.stat(path.parent).st_mode & 0o077


def test_failing_compile_falls_back_once_with_the_same_pairs(
    tmp_path, monkeypatch, native_log
):
    fake = tmp_path / "cc"
    fake.write_text("#!/bin/sh\necho 'cc: simulated failure' >&2\nexit 1\n")
    fake.chmod(0o700)
    monkeypatch.setattr(native, "find_compiler", lambda: str(fake))
    monkeypatch.setattr(native, "_LOADER", native.NativeLoader(tmp_path / "cache"))
    s, t, condition = _inputs()
    reference = canonical_pair_order(NestedLoopJoin().join(s, t, condition))
    algorithm = SortSweepJoin(memory_budget=4096)
    for _ in range(3):
        np.testing.assert_array_equal(
            canonical_pair_order(algorithm.join(s, t, condition)), reference
        )
        assert algorithm.count(s, t, condition) == reference.shape[0]
    assert not kernels.native_available()
    warnings = [r for r in native_log if r.levelno == logging.WARNING]
    assert len(warnings) == 1
    assert "simulated failure" in warnings[0].getMessage()
    assert not list((tmp_path / "cache").iterdir())  # no torn or partial file


def _no_home():
    raise RuntimeError("Could not determine home directory.")


@pytest.mark.parametrize(
    "home",
    [_no_home, lambda: native.Path("~")],
    ids=["home-raises", "home-unexpanded"],
)
def test_missing_home_directory_falls_back_once(
    home, tmp_path, monkeypatch, native_log
):
    # No HOME and a uid without a passwd entry: Path.home() raises (3.12+)
    # or hands back an unexpanded "~" (3.11 and older).
    monkeypatch.delenv("HOME", raising=False)
    monkeypatch.delenv("XDG_CACHE_HOME", raising=False)
    monkeypatch.setattr(native.Path, "home", staticmethod(home))
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(native, "_LOADER", native.NativeLoader(compiler=COMPILER))
    s, t, condition = _inputs()
    reference = canonical_pair_order(NestedLoopJoin().join(s, t, condition))
    algorithm = SortSweepJoin(memory_budget=4096)
    for _ in range(3):
        np.testing.assert_array_equal(
            canonical_pair_order(algorithm.join(s, t, condition)), reference
        )
        assert algorithm.count(s, t, condition) == reference.shape[0]
    assert not kernels.native_available()
    warnings = [r for r in native_log if r.levelno == logging.WARNING]
    assert len(warnings) == 1
    if COMPILER is not None:
        assert "home directory" in warnings[0].getMessage()
    assert not list(tmp_path.iterdir())  # nothing created relative to the cwd


def test_relative_xdg_cache_home_is_ignored(tmp_path, monkeypatch):
    monkeypatch.setenv("XDG_CACHE_HOME", "relative/cache")
    monkeypatch.setenv("HOME", str(tmp_path))
    assert native.cache_dir() == tmp_path / ".cache" / "repro-bandjoin"


def test_group_writable_cache_is_refused(tmp_path, monkeypatch, native_log):
    cache = tmp_path / "cache"
    cache.mkdir(mode=0o700)
    cache.chmod(0o777)
    loader = native.NativeLoader(cache, compiler=COMPILER or "cc")
    assert loader.get() is None
    assert "writable" in native_log[-1].getMessage()
    assert not list(cache.iterdir())


def _loaded_library(_):
    scan = native.library()
    return os.getpid(), None if scan is None else str(scan.path)


@requires_compiler
def test_pool_children_share_one_library_built_from_an_empty_cache(
    tmp_path, monkeypatch
):
    s = pareto_relation("S", 3000, 2, 1.0, seed=11)
    t = pareto_relation("T", 3000, 2, 1.0, seed=12)
    condition = BandCondition.symmetric(s.column_names, 0.05)
    engine = ParallelJoinEngine(backend="processes", max_parallelism=3)
    # Planning samples through the kernels in this process; do it first.
    partitioning, _ = engine.plan_cache.get_or_build(
        RecPartPartitioner(weights=engine.weights), s, t, condition, 6
    )
    cache = tmp_path / "xdg"
    monkeypatch.setenv("XDG_CACHE_HOME", str(cache))
    # A fresh, unloaded loader: forked children inherit it and build
    # concurrently; spawned children resolve the same directory from the env.
    monkeypatch.setattr(native, "_LOADER", native.NativeLoader())
    parallel = engine.execute(s, t, condition, partitioning, materialize=True)
    # The join's children built the library; the parent never loaded it.
    assert not native._LOADER._done
    built = sorted(p.name for p in (cache / "repro-bandjoin").iterdir())
    assert len(built) == 1 and built[0].startswith("_bandscan-")  # no tmp left
    with ProcessPoolExecutor(max_workers=3) as pool:
        loaded = list(pool.map(_loaded_library, range(6)))
    assert {path for _, path in loaded} == {str(cache / "repro-bandjoin" / built[0])}
    serial = ParallelJoinEngine(backend="serial").execute(
        s, t, condition, partitioning, materialize=True
    )
    np.testing.assert_array_equal(
        canonical_pair_order(parallel.pairs), canonical_pair_order(serial.pairs)
    )
    assert parallel.pairs.shape[0] > 0
