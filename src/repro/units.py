"""Byte / bandwidth / time unit helpers used throughout the library.

The simulation accounts memory in bytes and pages, bandwidth in bytes per
second, and time in (simulated) seconds.  These helpers keep call sites
readable: ``MiB(512)`` instead of ``512 * 1024 * 1024``.
"""

from __future__ import annotations

KIB = 1024
MIB = 1024 * KIB
GIB = 1024 * MIB


def KiB(n: float) -> int:
    """*n* kibibytes, as an integer byte count."""
    return int(n * KIB)


def MiB(n: float) -> int:
    """*n* mebibytes, as an integer byte count."""
    return int(n * MIB)


def GiB(n: float) -> int:
    """*n* gibibytes, as an integer byte count."""
    return int(n * GIB)


def gbit_per_s(n: float) -> float:
    """*n* gigabits per second, as bytes per second.

    Network vendors use decimal giga; a "gigabit Ethernet" link moves
    ``1e9 / 8`` bytes per second before protocol overhead.
    """
    return n * 1e9 / 8.0


def mbit_per_s(n: float) -> float:
    """*n* megabits per second, as bytes per second."""
    return n * 1e6 / 8.0


def fmt_bytes(n: float) -> str:
    """Render a byte count with a binary-unit suffix, e.g. ``1.50 GiB``."""
    value = float(n)
    for suffix in ("B", "KiB", "MiB", "GiB", "TiB"):
        if abs(value) < 1024.0 or suffix == "TiB":
            return f"{value:.2f} {suffix}"
        value /= 1024.0
    raise AssertionError("unreachable")


def fmt_seconds(t: float) -> str:
    """Render a duration in seconds with millisecond precision."""
    return f"{t:.3f} s"
