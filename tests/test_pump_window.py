"""The pre-copy pump's windowed scan against a full-chunk reference.

``PrecopyMigrator._pump`` evaluates the scan hooks (transfer mask,
dirty mask) only over a window sized from the byte budget, widening it
until the logical chunk's cut is found.  ``_reference_pump`` below is
the loop as it was before windowing — every chunk scanned at the full
16384 pages — kept verbatim as the oracle.  For random pending sets,
dirty bits, transfer bitmaps and budgets, both must leave the daemon in
the same state bit for bit: cursor, counters, ``cpu_seconds``, budget,
byte ledgers, destination pages and the dirty log.
"""

from __future__ import annotations

import contextlib
import json

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.guest.kernel import GuestKernel
from repro.guest.lkm import AssistLKM
from repro.mem.constants import PAGE_SIZE
from repro.migration.assisted import AssistedMigrator
from repro.migration import precopy
from repro.migration.precopy import _CHUNK, CPU_S_PER_PAGE_SCANNED, PrecopyMigrator
from repro.net.link import Link
from repro.xen.domain import Domain

N_PAGES = 3 * _CHUNK + 5000


def _reference_pump(self, now: float) -> None:
    """Move pages until the byte budget or the pending set runs out."""
    wire_cost = self._page_wire_cost()
    dirty_log = self.domain.dirty_log
    dest = self.dest_domain
    assert dest is not None
    while self._cursor < len(self._pending) and self._budget >= wire_cost:
        chunk = self._pending[self._cursor : self._cursor + 16384]
        allowed = self._transfer_allowed(chunk)
        re_dirtied = dirty_log.dirty_mask(chunk)
        send_mask = allowed & ~re_dirtied
        limit = int(self._budget // wire_cost)
        cum = np.cumsum(send_mask)
        if cum.size and cum[-1] > limit:
            # Budget ends inside this chunk: take the longest prefix
            # whose send count fits.
            prefix_len = int(np.searchsorted(cum, limit, side="right"))
            chunk = chunk[:prefix_len]
            allowed = allowed[:prefix_len]
            re_dirtied = re_dirtied[:prefix_len]
            send_mask = send_mask[:prefix_len]
        if chunk.size == 0:
            break
        to_send = chunk[send_mask]
        skipped_bitmap = chunk[~allowed]
        skipped_dirty = chunk[allowed & re_dirtied]
        if to_send.size:
            dest.install_pages(to_send, self.domain.read_pages(to_send))
            payload = self._payload_for(to_send)
            self._budget -= payload + to_send.size * self.link.page_overhead
            category = self._wire_category()
            wire = self.link.account_pages(
                int(to_send.size), payload_bytes=payload, category=category
            )
            self._iter_wire += wire
            self.report.account_wire(
                wire, self.link.last_retransmit_bytes, category
            )
            full = int(to_send.size) * PAGE_SIZE
            if payload < full:
                # Any payload below raw page bytes is compression at
                # work — the baselines' models and the rescue
                # compressor alike.
                self.report.account_saved(full - payload, "compression")
                if self.probe.enabled:
                    self.probe.count(
                        "net.saved_bytes", full - payload,
                        category="compression",
                    )
            self._iter_sent += int(to_send.size)
            self.report.cpu_seconds += self._cpu_cost_sent(int(to_send.size))
        if skipped_bitmap.size and self._iter_index > 1:
            self._reinject_skipped(skipped_bitmap)
        if skipped_bitmap.size or skipped_dirty.size:
            # Savings are priced at what each page would have cost
            # on the wire right now (pre-loss: the skipped page
            # would also have skipped its retransmissions).
            page_cost = int(self._page_wire_cost())
            if skipped_bitmap.size:
                self.report.account_saved(
                    int(skipped_bitmap.size) * page_cost, "skip_bitmap"
                )
                if self.probe.enabled:
                    self.probe.count(
                        "net.saved_bytes",
                        int(skipped_bitmap.size) * page_cost,
                        category="skip_bitmap",
                    )
            if skipped_dirty.size:
                self.report.account_saved(
                    int(skipped_dirty.size) * page_cost, "skip_redirty"
                )
                if self.probe.enabled:
                    self.probe.count(
                        "net.saved_bytes",
                        int(skipped_dirty.size) * page_cost,
                        category="skip_redirty",
                    )
        self._iter_skip_bitmap += int(skipped_bitmap.size)
        self._iter_skip_dirty += int(skipped_dirty.size)
        self.report.cpu_seconds += chunk.size * CPU_S_PER_PAGE_SCANNED
        self._cursor += int(chunk.size)


def _runs(rng: np.random.Generator, n: int, p_flip: float, p_true: float) -> np.ndarray:
    """A boolean mask of *n* pages made of runs: each page flips the
    previous page's value with probability *p_flip*."""
    flips = rng.random(n) < p_flip
    start = rng.random() < p_true
    return (np.cumsum(flips) % 2 == 0) == start


def _scenario(seed: int, assisted: bool, p_flip: float, iter_index: int,
              loss_rate: float, compression: float | None):
    rng = np.random.default_rng(seed)
    domain = Domain("src", N_PAGES * PAGE_SIZE)
    domain.touch_pfns(rng.integers(0, N_PAGES, N_PAGES // 2))
    link = Link()
    link.loss_rate = loss_rate
    if assisted:
        lkm = AssistLKM(GuestKernel(domain))
        # Long cleared stretches model skip-over areas wider than a chunk.
        lkm.transfer_bitmap.clear_pfns(np.flatnonzero(~_runs(rng, N_PAGES, p_flip, 0.5)))
        migrator = AssistedMigrator(domain, link, lkm, wire_compression=compression)
    else:
        migrator = PrecopyMigrator(domain, link, wire_compression=compression)
    domain.dirty_log.enable()
    domain.dirty_log.mark(np.flatnonzero(rng.random(N_PAGES) < rng.random() * 0.6))
    migrator.dest_domain = domain.make_destination()
    migrator._iter_index = iter_index
    if iter_index == 1:
        migrator._pending = np.arange(N_PAGES, dtype=np.int64)
    else:
        migrator._pending = np.flatnonzero(rng.random(N_PAGES) < 0.7).astype(np.int64)
    return migrator


def _state(m) -> tuple:
    return (
        m._cursor,
        m._iter_sent,
        m._iter_wire,
        m._iter_skip_dirty,
        m._iter_skip_bitmap,
        m._budget.hex(),
        m.report.cpu_seconds.hex(),
        m.report.rescue_compress_cpu_s.hex(),
        json.dumps(m.report.to_dict(), sort_keys=True),
        m.dest_domain.read_pages(np.arange(N_PAGES)).tobytes(),
        m.domain.dirty_log.dirty_mask(np.arange(N_PAGES)).tobytes(),
    )


def _send_mask(m) -> np.ndarray:
    """Sendable pages of the logical chunk at the cursor."""
    chunk = m._pending[m._cursor : m._cursor + _CHUNK]
    return m._transfer_allowed(chunk) & ~m.domain.dirty_log.dirty_mask(chunk)


@contextlib.contextmanager
def _scan_slack(pages: int):
    saved, precopy._SCAN_SLACK = precopy._SCAN_SLACK, pages
    try:
        yield
    finally:
        precopy._SCAN_SLACK = saved


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(0, 2**32 - 1),
    assisted=st.booleans(),
    p_flip=st.sampled_from([1e-5, 1e-4, 0.01, 0.5]),
    iter_index=st.sampled_from([1, 2, 5]),
    loss_rate=st.sampled_from([0.0, 0.01]),
    compression=st.sampled_from([None, 0.5]),
    budgets=st.lists(
        st.one_of(
            st.integers(1, 400),
            st.integers(400, 2 * _CHUNK),
            st.sampled_from(["chunk_end", "window_edge"]),
        ),
        min_size=1, max_size=4,
    ),
    remainder=st.floats(0.0, 0.999),
    # The outcome must not depend on where the windows fall.
    slack=st.one_of(st.just(precopy._SCAN_SLACK), st.integers(0, 300)),
    pick=st.floats(0.0, 1.0, exclude_max=True),
)
def test_windowed_pump_matches_full_chunk_scan(
    seed, assisted, p_flip, iter_index, loss_rate, compression, budgets,
    remainder, slack, pick,
):
    windowed = _scenario(seed, assisted, p_flip, iter_index, loss_rate, compression)
    reference = _scenario(seed, assisted, p_flip, iter_index, loss_rate, compression)
    assert _state(windowed) == _state(reference)
    wire_cost = windowed._page_wire_cost()
    for budget in budgets:
        if windowed._cursor == len(windowed._pending):
            windowed._cursor = reference._cursor = 0  # drained: rescan
        pages, window_slack = budget, slack
        if budget == "chunk_end":
            # limit == the chunk's sendable count: cum == limit at its
            # last page, so no cut falls inside it.
            pages = max(1, int(_send_mask(windowed).sum()))
        elif budget == "window_edge":
            # The first window ends on the last page the budget can
            # send, and the page after it is not sendable.
            send = _send_mask(windowed)
            edges = np.flatnonzero(send[:-1] & ~send[1:])
            pages = 1
            if edges.size:
                edge = int(edges[int(pick * edges.size)])
                pages = int(send[: edge + 1].sum())
                window_slack = edge + 1 - pages
        for m in (windowed, reference):
            if isinstance(budget, str):
                m._budget = 0.0
            m._budget += (pages + remainder) * wire_cost
        with _scan_slack(window_slack):
            PrecopyMigrator._pump(windowed, 0.0)
        _reference_pump(reference, 0.0)
        assert _state(windowed) == _state(reference)
