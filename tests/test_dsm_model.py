"""Exhaustive and randomized coherence model checks.

Each exhaustive check pins the model's reach: the (states, quiescent
states) pair of every exploration.  A change to the coherence engine that
changes which protocol states are reachable changes a pair, and must say
why.
"""

import pytest

from rio.dsm import Policy

from model_utils import (
    Op,
    all_programs,
    explore,
    run_coordinated_trace,
    run_uncoordinated_trace,
)


def test_conflicting_writers_same_page_all_interleavings():
    assert explore((Op("write", 0, 1), Op("write", 0, 2)),
                   (Op("write", 0, 101), Op("write", 0, 102))) == (104, 13)


def test_write_read_cross_page_all_interleavings():
    assert explore((Op("write", 0, 1), Op("read", 1)),
                   (Op("write", 1, 101), Op("read", 0))) == (81, 13)


def test_dma_against_client_writes_all_interleavings():
    for policy, reach in ((Policy.INVALIDATE, (69, 16)), (Policy.UPDATE_PUSH, (61, 15))):
        assert explore((Op("write", 0, 1), Op("read", 0)),
                       (Op("dma", 0, 101), Op("dma", 0, 102)),
                       policy=policy) == reach


def test_naive_fetch_then_claim_path_all_interleavings():
    assert explore((Op("write", 0, 1), Op("write", 1, 2)),
                   (Op("write", 0, 101), Op("write", 1, 102)),
                   naive=True) == (128, 15)


def test_exhaustive_single_op_programs():
    # Every (client op, server op) pair, all interleavings, both policies;
    # the reach is summed over the pairs of each policy.
    for policy, total in ((Policy.INVALIDATE, (35, 395, 127)),
                          (Policy.UPDATE_PUSH, (35, 393, 125))):
        reach = [explore(cprog, sprog, policy=policy)
                 for cprog in all_programs("client", 1) for sprog in all_programs("server", 1)]
        assert (len(reach), sum(s for s, _ in reach), sum(q for _, q in reach)) == total


def test_cross_fetch_deadlock_freedom():
    # Both sides start invalid on opposite pages and fetch across at once:
    # each must serve the other's fetch while its own is pending.
    assert explore((Op("read", 0), Op("write", 1, 7)),
                   (Op("read", 1), Op("write", 0, 107))) == (60, 13)


RUN_READ = Op("read", 0, count=2)  # one read of both pages: one fetch for the invalid run

RUN_READ_PROGRAMS = (
    ((RUN_READ,), (Op("write", 1, 101), Op("dma", 0, 102))),
    ((RUN_READ,), (Op("dma", 1, 101), Op("write", 0, 102))),
    ((Op("write", 0, 1), RUN_READ), (Op("write", 1, 101), Op("dma", 0, 102))),
    ((RUN_READ, Op("write", 0, 1)), (Op("dma", 0, 101), Op("read", 1))),
)
# (policy, naive) -> the reach of each pair of programs above, in order.
RUN_READ_REACH = {
    (Policy.INVALIDATE, False): [(44, 9), (48, 9), (62, 14), (55, 13)],
    (Policy.INVALIDATE, True): [(44, 9), (48, 9), (73, 14), (55, 13)],
    (Policy.UPDATE_PUSH, False): [(40, 8), (38, 7), (58, 13), (49, 13)],
    (Policy.UPDATE_PUSH, True): [(40, 8), (38, 7), (73, 15), (49, 13)],
}


@pytest.mark.parametrize("naive", [False, True], ids=["coalesced", "naive"])
@pytest.mark.parametrize("policy", [Policy.INVALIDATE, Policy.UPDATE_PUSH],
                         ids=lambda p: p.name)
def test_run_read_against_server_writes_and_dma_all_interleavings(policy, naive):
    reach = [explore(client_prog, server_prog, policy=policy, naive=naive)
             for client_prog, server_prog in RUN_READ_PROGRAMS]
    assert reach == RUN_READ_REACH[policy, naive]


DMA_RUN = Op("dma", 0, 102, count=2)  # one DMA over both pages: one message for the run

DMA_RUN_PROGRAMS = (
    ((Op("write", 0, 1), Op("read", 1)), (DMA_RUN,)),
    ((RUN_READ, Op("write", 1, 1)), (DMA_RUN,)),
    ((Op("write", 0, 1), RUN_READ), (DMA_RUN,)),
    ((Op("read", 1), Op("write", 1, 1)), (DMA_RUN, Op("read", 0))),
    ((Op("write", 0, 1), Op("write", 1, 2)), (DMA_RUN, Op("dma", 0, 103, count=2))),
    ((Op("read", 0), Op("write", 1, 1), RUN_READ), (Op("write", 0, 101), DMA_RUN)),
)
DMA_RUN_REACH = {
    (Policy.INVALIDATE, False): [(37, 9), (30, 9), (42, 9), (51, 13), (93, 15), (120, 24)],
    (Policy.INVALIDATE, True): [(45, 9), (31, 9), (51, 9), (51, 13), (123, 15), (149, 24)],
    (Policy.UPDATE_PUSH, False): [(34, 8), (26, 8), (34, 8), (45, 13), (104, 19), (91, 17)],
    (Policy.UPDATE_PUSH, True): [(48, 10), (26, 8), (48, 10), (45, 13), (140, 22), (122, 19)],
}


@pytest.mark.parametrize("naive", [False, True], ids=["coalesced", "naive"])
@pytest.mark.parametrize("policy", [Policy.INVALIDATE, Policy.UPDATE_PUSH],
                         ids=lambda p: p.name)
def test_two_page_dma_against_client_reads_and_writes_all_interleavings(policy, naive):
    reach = [explore(client_prog, server_prog, policy=policy, naive=naive)
             for client_prog, server_prog in DMA_RUN_PROGRAMS]
    assert reach == DMA_RUN_REACH[policy, naive]


@pytest.mark.parametrize("stray,reach", [
    (Op("stray", 0, 50), [(16, 2), (105, 8)]),
    (Op("stray", 1, 51), [(16, 2), (108, 8)]),
    (Op("stray", 0, 52, count=2), [(20, 2), (99, 8)]),
], ids=["first-page", "shifted", "whole-run"])
def test_stray_page_data_installs_only_as_the_exact_run_in_flight(stray, reach):
    # The client takes unasked-for data only if it is exactly the run of a
    # fetch in flight; anything else is a ProtocolFault that changes nothing.
    assert [explore((RUN_READ,), (stray,)),
            explore((Op("read", 1), RUN_READ), (Op("dma", 1, 101), stray))] == reach


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="CHANGES.md FOUND: a stale crossed ownership claim under "
                          "update-push leaves the server page invalid, and the next "
                          "fetch of it is a ProtocolFault")
def test_crossed_claim_then_dma_under_update_push_all_interleavings():
    explore((Op("read", 1), Op("write", 1, 1), Op("read", 1)),
            (Op("write", 1, 101), Op("dma", 1, 102)),
            policy=Policy.UPDATE_PUSH)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="CHANGES.md FOUND: a stale crossed ownership claim under "
                          "update-push leaves the server page invalid, and the next "
                          "fetch of it is a ProtocolFault")
def test_crossed_claim_then_two_page_dma_under_update_push_all_interleavings():
    explore((Op("read", 0), Op("write", 0, 1), Op("read", 0)),
            (Op("write", 0, 101), DMA_RUN),
            policy=Policy.UPDATE_PUSH)


@pytest.mark.parametrize("seed", range(200))
def test_coordinated_traces_match_serial_oracle(seed):
    run_coordinated_trace(seed)


@pytest.mark.parametrize("seed", range(100))
def test_uncoordinated_traces_keep_single_writer(seed):
    run_uncoordinated_trace(10_000 + seed)
