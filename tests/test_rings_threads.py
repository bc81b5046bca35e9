"""Publication-contract checks under real threads.

The heavyweight million-RPC versions of these runs live in the acceptance
suite; here the same rigs run at a smaller scale as regression guards.
"""

import sys

from nicsim import rings
from nicsim.realthreads import (
    checksummed_payload,
    payload_intact,
    run_echo_stress,
    run_spsc_stress,
)


def test_checksum_helpers():
    p = checksummed_payload(1234, 99)
    assert len(p) == 48
    assert payload_intact(p)
    torn = p[:20] + bytes([p[20] ^ 0xFF]) + p[21:]
    assert not payload_intact(torn)


def test_spsc_publication_contract_threaded():
    stats = run_spsc_stress(150_000)
    assert stats.completed == 150_000
    assert stats.clean, stats


def test_echo_roundtrip_threaded():
    stats = run_echo_stress(100_000)
    assert stats.completed == 100_000
    assert stats.clean, stats


def test_runs_that_cross_the_ring_end_under_two_threads(monkeypatch):
    # depth 8 with runs of at most 3 and a window of 7: publish, fetch,
    # delivery and pickup runs keep crossing the end of each ring, where the
    # ring splits each slice in two
    wrapped = set()  # the ring methods that moved a run across the end

    def spy(helper):
        def split(seq, idx, n_or_items):
            n = n_or_items if isinstance(n_or_items, int) else len(n_or_items)
            if idx + n > len(seq):
                wrapped.add(sys._getframe(1).f_code.co_name)
            return helper(seq, idx, n_or_items)
        return split

    monkeypatch.setattr(rings, "_read", spy(rings._read))
    monkeypatch.setattr(rings, "_write", spy(rings._write))
    stats = run_echo_stress(20_000, depth=8, batch=3, window=7)
    assert stats.completed == 20_000
    assert stats.clean, stats
    assert wrapped == {"tx_publish_run", "nic_fetch", "nic_release", "rx_deliver_run",
                       "rx_poll_run", "rx_release_run"}
