"""The host-speed factor's arithmetic, on a fake clock."""

import itertools

import pytest

import hostspeed


def fake_clock(monkeypatch, interpreter_s: float, vector_s: float) -> None:
    ticks = itertools.accumulate([0.0, interpreter_s, vector_s] * 100)
    monkeypatch.setattr(hostspeed.time, "perf_counter", lambda: next(ticks))


@pytest.mark.parametrize("share", [0.0, 0.2, 0.7, 1.0])
def test_factor_weights_each_kernel_against_its_reference(monkeypatch, share):
    ref = hostspeed.REFERENCE_S
    fake_clock(monkeypatch, 2 * ref["interpreter"], 3 * ref["vector"])
    assert hostspeed.Probe(share)() == pytest.approx(2 * share + 3 * (1 - share))


def test_reference_speed_gives_factor_one(monkeypatch):
    ref = hostspeed.REFERENCE_S
    fake_clock(monkeypatch, ref["interpreter"], ref["vector"])
    assert hostspeed.setup_factor() == pytest.approx(1.0)


def test_every_workload_has_a_share_in_range():
    import run
    assert set(hostspeed.INTERPRETER_SHARE) == set(run.WORKLOADS)
    assert all(0.0 <= s <= 1.0 for s in hostspeed.INTERPRETER_SHARE.values())
