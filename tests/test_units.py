"""Unit helpers."""

import pytest

from repro import units


def test_binary_units_scale():
    assert units.KiB(1) == 1024
    assert units.MiB(1) == 1024**2
    assert units.GiB(1) == 1024**3
    assert units.GiB(2) == 2 * 1024**3


def test_fractional_units_truncate_to_int():
    assert units.MiB(1.5) == int(1.5 * 1024**2)
    assert isinstance(units.MiB(1.5), int)


def test_gigabit_link_rate():
    # 1 Gbps = 125,000,000 bytes/s before overheads.
    assert units.gbit_per_s(1.0) == pytest.approx(125e6)
    assert units.mbit_per_s(1000) == pytest.approx(units.gbit_per_s(1.0))


def test_fmt_bytes_picks_sensible_suffix():
    assert units.fmt_bytes(512) == "512.00 B"
    assert units.fmt_bytes(units.KiB(2)) == "2.00 KiB"
    assert units.fmt_bytes(units.MiB(3)) == "3.00 MiB"
    assert units.fmt_bytes(units.GiB(1.5)) == "1.50 GiB"


def test_fmt_bytes_huge_values_saturate_at_tib():
    assert units.fmt_bytes(units.GiB(4096 * 10)).endswith("TiB")


def test_fmt_seconds():
    assert units.fmt_seconds(1.2345) == "1.234 s" or units.fmt_seconds(1.2345) == "1.235 s"
