"""Exhaustive and randomized coherence model checks."""

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
    states, quiescent = explore(
        (Op("write", 0, 1), Op("write", 0, 2)),
        (Op("write", 0, 101), Op("write", 0, 102)))
    assert quiescent >= 1
    assert states > 10


def test_write_read_cross_page_all_interleavings():
    explore((Op("write", 0, 1), Op("read", 1)),
            (Op("write", 1, 101), Op("read", 0)))


def test_dma_against_client_writes_all_interleavings():
    for policy in (Policy.INVALIDATE, Policy.UPDATE_PUSH):
        explore((Op("write", 0, 1), Op("read", 0)),
                (Op("dma", 0, 101), Op("dma", 0, 102)),
                policy=policy)


def test_naive_fetch_then_claim_path_all_interleavings():
    explore((Op("write", 0, 1), Op("write", 1, 2)),
            (Op("write", 0, 101), Op("write", 1, 102)),
            naive=True)


def test_exhaustive_single_op_programs():
    # Every (client op, server op) pair, all interleavings, both policies.
    for policy in (Policy.INVALIDATE, Policy.UPDATE_PUSH):
        for cprog in all_programs("client", 1):
            for sprog in all_programs("server", 1):
                explore(cprog, sprog, policy=policy)


def test_cross_fetch_deadlock_freedom():
    # Both sides start invalid on opposite pages and fetch across at once:
    # each must serve the other's fetch while its own is pending.
    states, quiescent = explore(
        (Op("read", 0), Op("write", 1, 7)),
        (Op("read", 1), Op("write", 0, 107)))
    assert quiescent >= 1


RUN_READ = Op("read", 0, count=2)  # one read of both pages: one fetch for the invalid run


@pytest.mark.parametrize("naive", [False, True], ids=["coalesced", "naive"])
@pytest.mark.parametrize("policy", [Policy.INVALIDATE, Policy.UPDATE_PUSH],
                         ids=lambda p: p.name)
def test_run_read_against_server_writes_and_dma_all_interleavings(policy, naive):
    for client_prog, server_prog in (
        ((RUN_READ,), (Op("write", 1, 101), Op("dma", 0, 102))),
        ((RUN_READ,), (Op("dma", 1, 101), Op("write", 0, 102))),
        ((Op("write", 0, 1), RUN_READ), (Op("write", 1, 101), Op("dma", 0, 102))),
        ((RUN_READ, Op("write", 0, 1)), (Op("dma", 0, 101), Op("read", 1))),
    ):
        states, quiescent = explore(client_prog, server_prog, policy=policy, naive=naive)
        assert quiescent >= 1


DMA_RUN = Op("dma", 0, 102, count=2)  # one DMA over both pages: one message for the run


@pytest.mark.parametrize("naive", [False, True], ids=["coalesced", "naive"])
@pytest.mark.parametrize("policy", [Policy.INVALIDATE, Policy.UPDATE_PUSH],
                         ids=lambda p: p.name)
def test_two_page_dma_against_client_reads_and_writes_all_interleavings(policy, naive):
    for client_prog, server_prog in (
        ((Op("write", 0, 1), Op("read", 1)), (DMA_RUN,)),
        ((RUN_READ, Op("write", 1, 1)), (DMA_RUN,)),
        ((Op("write", 0, 1), RUN_READ), (DMA_RUN,)),
        ((Op("read", 1), Op("write", 1, 1)), (DMA_RUN, Op("read", 0))),
        ((Op("write", 0, 1), Op("write", 1, 2)), (DMA_RUN, Op("dma", 0, 103, count=2))),
        ((Op("read", 0), Op("write", 1, 1), RUN_READ), (Op("write", 0, 101), DMA_RUN)),
    ):
        states, quiescent = explore(client_prog, server_prog, policy=policy, naive=naive)
        assert quiescent >= 1


@pytest.mark.parametrize("stray", [Op("stray", 0, 50), Op("stray", 1, 51),
                                   Op("stray", 0, 52, count=2)],
                         ids=["first-page", "shifted", "whole-run"])
def test_stray_page_data_installs_only_as_the_exact_run_in_flight(stray):
    # The client takes unasked-for data only if it is exactly the run of a
    # fetch in flight; anything else is a ProtocolFault that changes nothing.
    explore((RUN_READ,), (stray,))
    explore((Op("read", 1), RUN_READ), (Op("dma", 1, 101), stray))


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
