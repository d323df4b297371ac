"""Log-dirty tracking semantics (Xen's peek-and-clear)."""

import numpy as np

from repro.xen.dirty_log import DirtyLog


def test_disabled_log_records_nothing():
    log = DirtyLog(16)
    log.mark(np.array([1, 2]))
    assert log.count() == 0
    assert not log.enabled


def test_enable_starts_clean():
    log = DirtyLog(16)
    log.enable()
    log.mark(np.array([1]))
    log.disable()
    log.enable()
    assert log.count() == 0


def test_peek_and_clear_consumes():
    log = DirtyLog(16)
    log.enable()
    log.mark(np.array([3, 5]))
    assert list(log.peek_and_clear()) == [3, 5]
    assert log.count() == 0


def test_peek_does_not_consume():
    log = DirtyLog(16)
    log.enable()
    log.mark_range(0, 3)
    assert list(log.peek()) == [0, 1, 2]
    assert log.count() == 3


def test_mid_iteration_dirtying_surfaces_next_snapshot():
    # The property Figure 1 rests on: pages dirtied after a snapshot
    # appear in the next one.
    log = DirtyLog(16)
    log.enable()
    log.mark(np.array([1]))
    first = log.peek_and_clear()
    log.mark(np.array([2]))
    second = log.peek_and_clear()
    assert list(first) == [1]
    assert list(second) == [2]


def test_dirty_mask_and_is_dirty():
    log = DirtyLog(16)
    log.enable()
    log.mark(np.array([4]))
    assert log.is_dirty(4)
    assert not log.is_dirty(5)
    assert list(log.dirty_mask(np.array([3, 4, 5]))) == [False, True, False]


def test_disable_clears():
    log = DirtyLog(16)
    log.enable()
    log.mark(np.array([1]))
    log.disable()
    assert log.count() == 0
    log.mark(np.array([2]))
    assert log.count() == 0


def test_pages_marked_counts_into_the_current_probe():
    """The held ``dirty.pages_marked`` counter follows probe
    reassignment and pickling: each probe's registry counts the marks
    made while it is attached, and nothing else."""
    import pickle

    from repro.telemetry.probe import Probe

    log = DirtyLog(16)
    log.enable()
    log.mark_range(0, 3)  # no probe: nothing counted anywhere
    first, second = Probe(), Probe()
    log.probe = first
    assert len(first.metrics) == 0  # the counter is created by a mark
    log.mark_range(0, 3)
    log.mark(np.array([1, 1]))
    log.probe = second
    log.mark_counted(np.array([4]), 5)
    twin_log, twin_probe = pickle.loads(pickle.dumps((log, second)))
    twin_log.mark_range(8, 10)
    values = [
        p.metrics.snapshot().value("dirty.pages_marked") for p in (first, second, twin_probe)
    ]
    assert values == [5, 5, 7]
