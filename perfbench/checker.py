"""Independent answer checker for band-join results.

The reference is defined by :meth:`BandCondition.matches` alone.  Candidate
pairs come from a grid over all join dimensions whose cells are one band
width plus a safety margin wide, so every pair within the (widened) band
lies in a neighbouring cell; the candidates are then filtered with
``matches``.  No kernel's window arithmetic is reused, so a kernel that
evaluates the band in another float form disagrees with the reference
instead of with itself.

An answer is *correct* when its pairs are unique, all satisfy ``matches``,
and their number equals the reference count.  A wrong answer is classified
as a *float tie* when every discrepancy lies within a few ulps of the band
edge — the pair would match a band widened, or narrowed, by a tolerance far
below any data grid step — and as *other* otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.geometry.band import BandCondition

#: Candidate pairs materialized per chunk (bounds the checker's memory).
CHUNK_CANDIDATES = 2_000_000

#: Relative width of the candidate margin around the band.
MARGIN_REL = 1e-9

#: Relative tolerance of the tie classification: far below one step of the
#: 5-decimal data grid at every magnitude the workloads generate, far above
#: the rounding error of any float form of the band test.
TIE_REL = 2.0 ** -36


def _scale(s_matrix: np.ndarray, t_matrix: np.ndarray) -> np.ndarray:
    """Per-dimension magnitude of the data (at least 1)."""
    mags = [np.abs(m).max(axis=0) for m in (s_matrix, t_matrix) if m.shape[0]]
    if not mags:
        return np.ones(s_matrix.shape[1])
    return np.maximum(1.0, np.max(mags, axis=0))


def _shifted(condition: BandCondition, delta: np.ndarray) -> BandCondition:
    """The same band with every width moved by ``delta`` (per dimension)."""
    left, right = condition.eps_arrays()
    return BandCondition(
        {
            attr: (max(0.0, float(left[j] + delta[j])), max(0.0, float(right[j] + delta[j])))
            for j, attr in enumerate(condition.attributes)
        }
    )


def band_candidates(s_matrix, t_matrix, condition, chunk=CHUNK_CANDIDATES):
    """Yield ``(s_idx, t_idx)`` candidate chunks covering every matching pair.

    Each S row goes to a grid cell per dimension; a T row's candidates are
    the S rows in the cells its widened window ``[t - right - m, t + left + m]``
    touches.  Cell ids are rank-compressed per dimension so the combined
    key cannot overflow.
    """
    d = condition.dimensionality
    n_s, n_t = s_matrix.shape[0], t_matrix.shape[0]
    if n_s == 0 or n_t == 0:
        return
    # T rows in first-dimension order keep every binary search below
    # cache-local; ``t_order`` maps the yielded positions back to rows.
    t_order = np.argsort(t_matrix[:, 0], kind="stable")
    t_matrix = t_matrix[t_order]
    left, right = condition.eps_arrays()
    scale = _scale(s_matrix, t_matrix)
    margin = MARGIN_REL * (scale + left + right)
    width = (left + right + 2.0 * margin) * (1.0 + 1e-9)
    origin = np.minimum(s_matrix.min(axis=0), t_matrix.min(axis=0)) - width
    s_cells = np.floor((s_matrix - origin) / width).astype(np.int64)
    t_lo = np.floor((t_matrix - right - margin - origin) / width).astype(np.int64)
    t_hi = np.floor((t_matrix + left + margin - origin) / width).astype(np.int64)

    strides = np.ones(d, dtype=np.int64)
    rank_lo = np.empty((n_t, d), dtype=np.int64)
    rank_hi = np.empty((n_t, d), dtype=np.int64)
    key = np.zeros(n_s, dtype=np.int64)
    uniques = [np.unique(s_cells[:, j]) for j in range(d)]
    for j in range(d - 1, -1, -1):
        if j < d - 1:
            strides[j] = strides[j + 1] * uniques[j + 1].size
        key += np.searchsorted(uniques[j], s_cells[:, j]) * strides[j]
        rank_lo[:, j] = np.searchsorted(uniques[j], t_lo[:, j], side="left")
        rank_hi[:, j] = np.searchsorted(uniques[j], t_hi[:, j], side="right")
    order = np.argsort(key, kind="stable")
    sorted_key = key[order]

    # The leading d-1 dimensions span at most two present cells each; the
    # last dimension's cells are contiguous in the key, so one range each.
    spans = rank_hi - rank_lo
    if d > 1 and spans[:, : d - 1].max() > 2:
        raise RuntimeError("band window spans more than two grid cells")
    for combo in np.ndindex(*([2] * (d - 1))):
        offs = np.asarray(combo, dtype=np.int64)
        valid = spans[:, d - 1] > 0
        base = np.zeros(n_t, dtype=np.int64)
        for j in range(d - 1):
            valid &= offs[j] < spans[:, j]
            base += (rank_lo[:, j] + offs[j]) * strides[j]
        rows = t_order[valid]
        if rows.size == 0:
            continue
        base = base[valid]
        lo = np.searchsorted(sorted_key, base + rank_lo[valid, d - 1], side="left")
        hi = np.searchsorted(sorted_key, base + rank_hi[valid, d - 1], side="left")
        counts = hi - lo
        yield from _expand(order, rows, lo, counts, chunk)


def _expand(order, rows, lo, counts, chunk):
    """Expand per-row ``[lo, lo + count)`` windows into index pairs, chunked."""
    cum = np.cumsum(counts)
    start = 0
    while start < rows.size:
        base = cum[start - 1] if start else 0
        stop = int(np.searchsorted(cum, base + chunk, side="right"))
        stop = max(stop, start + 1)
        c = counts[start:stop]
        total = int(c.sum())
        if total:
            t_idx = np.repeat(rows[start:stop], c)
            firsts = np.repeat(lo[start:stop] - (np.cumsum(c) - c), c)
            s_pos = firsts + np.arange(total)
            yield order[s_pos], t_idx
        start = stop


def _count(s_matrix, t_matrix, condition, check) -> int:
    """Count candidate pairs that satisfy ``check.matches``."""
    total = 0
    for s_idx, t_idx in band_candidates(s_matrix, t_matrix, condition):
        total += int(np.count_nonzero(check.matches(s_matrix[s_idx], t_matrix[t_idx])))
    return total


class Reference:
    """Exact pair count of one (data, band) instance, by ``BandCondition.matches``.

    ``core`` — the pairs that still match a band narrowed by the tie
    tolerance — is only needed to classify a wrong answer, so it is counted
    on first use.
    """

    def __init__(self, s_matrix, t_matrix, condition) -> None:
        self.s_matrix, self.t_matrix, self.condition = s_matrix, t_matrix, condition
        self.tol = TIE_REL * _scale(s_matrix, t_matrix)
        self.count = _count(s_matrix, t_matrix, condition, condition)
        self._core: int | None = None

    @property
    def core(self) -> int:
        if self._core is None:
            narrow = _shifted(self.condition, -self.tol)
            self._core = _count(self.s_matrix, self.t_matrix, self.condition, narrow)
        return self._core


@dataclass(frozen=True)
class Verdict:
    """Outcome of checking one answer."""

    pairs: int
    duplicates: int
    out_of_band: int
    out_of_band_ties: int
    missing: int
    ok: bool
    tie_only: bool


def check_pairs(pairs, ref: Reference) -> Verdict:
    """Check one materialized ``(s_row, t_row)`` answer against the reference."""
    s_matrix, t_matrix, condition = ref.s_matrix, ref.t_matrix, ref.condition
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    m = pairs.shape[0]
    codes = np.sort(pairs[:, 0] * np.int64(t_matrix.shape[0]) + pairs[:, 1])
    duplicates = int(np.count_nonzero(codes[1:] == codes[:-1])) if m > 1 else 0
    del codes
    wide = _shifted(condition, ref.tol)
    in_band = ties = 0
    for start in range(0, m, CHUNK_CANDIDATES):
        part = pairs[start : start + CHUNK_CANDIDATES]
        s_vals, t_vals = s_matrix[part[:, 0]], t_matrix[part[:, 1]]
        hit = condition.matches(s_vals, t_vals)
        in_band += int(np.count_nonzero(hit))
        if not hit.all():
            ties += int(np.count_nonzero(wide.matches(s_vals[~hit], t_vals[~hit])))
    out = m - in_band
    ok = duplicates == 0 and out == 0 and in_band == ref.count
    tie_only = False
    if not ok and duplicates == 0 and ties == out:
        # With unique pairs, the answer's core is a subset of the reference
        # core, so equal counts mean every missing pair sits on the band edge.
        narrow = _shifted(condition, -ref.tol)
        core = 0
        for start in range(0, m, CHUNK_CANDIDATES):
            part = pairs[start : start + CHUNK_CANDIDATES]
            core += int(np.count_nonzero(narrow.matches(s_matrix[part[:, 0]], t_matrix[part[:, 1]])))
        tie_only = core == ref.core
    return Verdict(
        pairs=m,
        duplicates=duplicates,
        out_of_band=out,
        out_of_band_ties=ties,
        missing=max(0, ref.count - in_band) if duplicates == 0 else 0,
        ok=ok,
        tie_only=tie_only,
    )
