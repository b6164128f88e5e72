import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rydeit.model import BlockadeConfig, BlockadeMode, build_chain
from rydeit.statespace import KIND_E, KIND_EE, KIND_ER, KIND_R, KIND_RR, build_index


def _index(n, mode="full", seedless_chain=None):
    chain = seedless_chain or build_chain(n, 1.0)
    blk = {"full": BlockadeConfig.fully_blockaded(),
           "none": BlockadeConfig.none(),
           "power": BlockadeConfig(mode=BlockadeMode.POWER_LAW, r_b=0.25, v0=1.0,
                                   v_cap=50.0)}[mode]
    return build_index(n, blk, chain)


def test_block_sizes_small():
    # N = 2: 2 e + 2 r + 3 ee (incl. same-atom) + 4 er (ordered incl. diag)
    idx = _index(2, "full")
    assert (idx.n_ee, idx.n_er, idx.n_rr) == (3, 4, 0)
    assert idx.dim == 2 + 2 + 3 + 4
    idx = _index(2, "none")
    assert idx.n_rr == 3  # both pairs and the two same-atom slots
    assert idx.dim == 2 + 2 + 3 + 4 + 3


def test_dimension_formula_matches_enumeration():
    for n in range(1, 11):
        for mode in ("full", "none", "power"):
            idx = _index(n, mode)
            assert idx.n_ee == n * (n + 1) // 2
            assert idx.n_er == n * n
            # enumerate rr by the same rule the index uses
            from rydeit.model import interaction, BLOCKED
            chain = build_chain(n, 1.0)
            blk = {"full": BlockadeConfig.fully_blockaded(),
                   "none": BlockadeConfig.none(),
                   "power": BlockadeConfig(mode=BlockadeMode.POWER_LAW, r_b=0.25,
                                           v0=1.0, v_cap=50.0)}[mode]
            z = chain.z()
            n_rr = sum(1 for h in range(n) for j in range(h, n)
                       if interaction(blk, abs(z[j] - z[h])) != BLOCKED)
            assert idx.n_rr == n_rr
            assert idx.dim == 2 * n + idx.n_ee + idx.n_er + idx.n_rr


def test_power_law_cap_excludes_near_pairs():
    # near pairs exceed the cap and disappear from the rr block: on spacing
    # 1/6 with r_b = 0.25 and v0 = 1 the nearest neighbours have V = 11.4
    # > 5, so their 5 pairs drop and the 10 farther ones (V <= 0.18) stay
    chain = build_chain(6, 1.0)
    blk = BlockadeConfig(mode=BlockadeMode.POWER_LAW, r_b=0.25, v0=1.0, v_cap=5.0)
    idx = build_index(6, blk, chain)
    assert idx.rr_slot(0, 0) is None          # same atom always blocked
    assert idx.rr_slot(0, 1) is None
    assert idx.n_rr == 10


def test_full_blockade_has_empty_rr():
    idx = _index(5, "full")
    assert idx.n_rr == 0
    assert idx.rr_slot(0, 1) is None


@settings(max_examples=120, deadline=None)
@given(n=st.sampled_from([2, 5, 28]), data=st.data())
def test_pack_unpack_round_trip(n, data):
    idx = _index(n, "none")
    slot = data.draw(st.integers(0, idx.dim - 1))
    label = idx.unpack(slot)
    kind = label[0]
    if kind == KIND_E:
        assert idx.e_slot(label[1]) == slot
    elif kind == KIND_R:
        assert idx.r_slot(label[1]) == slot
    elif kind == KIND_EE:
        assert idx.ee_slot(label[1], label[2]) == slot
        assert idx.ee_slot(label[2], label[1]) == slot  # unordered
    elif kind == KIND_ER:
        assert idx.er_slot(label[1], label[2]) == slot  # ordered
    else:
        assert kind == KIND_RR
        assert idx.rr_slot(label[1], label[2]) == slot


def test_pack_unpack_exhaustive_small_and_random_large():
    # every slot at N in {2, 5}; 10^4 random slots at N = 28
    for n in (2, 5):
        idx = _index(n, "none")
        for slot in range(idx.dim):
            label = idx.unpack(slot)
            back = {KIND_E: lambda l: idx.e_slot(l[1]),
                    KIND_R: lambda l: idx.r_slot(l[1]),
                    KIND_EE: lambda l: idx.ee_slot(l[1], l[2]),
                    KIND_ER: lambda l: idx.er_slot(l[1], l[2]),
                    KIND_RR: lambda l: idx.rr_slot(l[1], l[2])}[label[0]](label)
            assert back == slot
    idx = _index(28, "none")
    rng = np.random.default_rng(0)
    for slot in rng.integers(0, idx.dim, size=10000):
        label = idx.unpack(int(slot))
        back = {KIND_E: lambda l: idx.e_slot(l[1]),
                KIND_R: lambda l: idx.r_slot(l[1]),
                KIND_EE: lambda l: idx.ee_slot(l[1], l[2]),
                KIND_ER: lambda l: idx.er_slot(l[1], l[2]),
                KIND_RR: lambda l: idx.rr_slot(l[1], l[2])}[label[0]](label)
        assert back == slot


@pytest.mark.parametrize("mode", ["none", "full", "power"])
def test_mode_pairs_match_slot_labels(mode):
    # doubles slot k holds singles modes (a_k, b_k): e_h is mode h, r_h is N + h
    n = 6
    idx = _index(n, mode)
    a, b = idx.mode_pairs()
    assert a.shape == b.shape == (idx.dim_doubles,)
    for k, (ak, bk) in enumerate(zip(a, b)):
        slot = idx.dim_singles + k
        kind, h, j = idx.unpack(slot)
        if kind == KIND_EE:
            assert (ak, bk) == (h, j) and idx.ee_slot(h, j) == slot
        elif kind == KIND_ER:
            assert (ak, bk) == (h, n + j) and idx.er_slot(h, j) == slot
        else:
            assert kind == KIND_RR
            assert (ak, bk) == (n + h, n + j) and idx.rr_slot(h, j) == slot
        assert ak <= bk


def test_er_ordering_matters():
    idx = _index(3, "full")
    assert idx.er_slot(0, 2) != idx.er_slot(2, 0)
