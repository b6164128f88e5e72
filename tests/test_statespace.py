import numpy as np
import pytest

from rydeit.model import BlockadeConfig, BlockadeMode, build_chain
from rydeit.statespace import build_index


def _index(n, mode="full", seedless_chain=None):
    chain = seedless_chain or build_chain(n)
    blk = {"full": BlockadeConfig.fully_blockaded(),
           "none": BlockadeConfig.none(),
           "power": BlockadeConfig(mode=BlockadeMode.POWER_LAW, r_b=0.25, v0=1.0,
                                   v_cap=50.0)}[mode]
    return build_index(blk, chain)


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
            chain = build_chain(n)
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
    chain = build_chain(6)
    blk = BlockadeConfig(mode=BlockadeMode.POWER_LAW, r_b=0.25, v0=1.0, v_cap=5.0)
    idx = build_index(blk, chain)
    assert (0, 0) not in idx.rr_pairs         # same atom always blocked
    assert (0, 1) not in idx.rr_pairs
    assert idx.n_rr == 10


def test_full_blockade_has_empty_rr():
    idx = _index(5, "full")
    assert idx.n_rr == 0
    assert (0, 1) not in idx.rr_pairs


@pytest.mark.parametrize("mode", ["none", "full", "power"])
def test_mode_pairs_match_slot_labels(mode):
    # the doubles run [ee h<=j] [er h,j] [rr allowed], and slot k holds the
    # singles modes (a_k, b_k): e_h is mode h, r_h is mode N + h
    n = 6
    idx = _index(n, mode)
    labels = ([(h, j) for h in range(n) for j in range(h, n)]
              + [(h, n + j) for h in range(n) for j in range(n)]
              + [(n + h, n + j) for h, j in idx.rr_pairs])
    a, b = idx.mode_pairs()
    assert a.shape == b.shape == (idx.dim_doubles,)
    assert list(zip(a.tolist(), b.tolist())) == labels
    assert np.all(a <= b)


@pytest.mark.parametrize("n, mode", [(1, "none"), (4, "full"), (6, "power")])
def test_singles_and_doubles_partition_the_stacked_state(n, mode):
    # y = [g; psi1; psi2]: the slices cover every slot after the ground once
    idx = _index(n, mode)
    k1, k2 = idx.singles, idx.doubles
    y = np.arange(1 + idx.dim)
    assert len(y[k1]) == idx.dim_singles and len(y[k2]) == idx.dim_doubles
    assert np.array_equal(np.r_[y[k1], y[k2]], np.arange(1, 1 + idx.dim))
