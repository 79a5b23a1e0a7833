"""The host-speed probe: it times the call alone, scales it by the chunk
time it sampled, and leaves no timer or handler behind."""

import signal
import time

import pytest

import hostspeed


def _busy(seconds):
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass
    return "done"


def test_call_times_the_call_without_the_chunks():
    probe = hostspeed.Probe()
    result, seconds, ref = probe.call(lambda: _busy(0.2))
    assert result == "done"
    # the busy loop watches the clock, so the chunks run inside it eat into
    # its 0.2 s; the probe takes them out again
    assert 0.1 < seconds < 0.2
    chunks = probe._samples
    assert len(chunks) > 5
    mean_chunk = sum(chunks) / len(chunks)
    assert ref == pytest.approx(seconds * hostspeed.REF_CHUNK_S / mean_chunk)


def test_timer_and_handler_are_restored_after_an_exception():
    before = signal.getsignal(signal.SIGALRM)
    probe = hostspeed.Probe()

    def boom():
        _busy(0.05)
        raise ValueError("boom")

    with pytest.raises(ValueError):
        probe.call(boom)
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is before
