"""The numeric kernels against the independent residue oracle."""

import numpy as np

from sysarith._accel import build_split_masks, character_tables

from oracles import brute_is_squarefree, brute_splitting_q, sieve_primes


def fundamental_fields(per_class):
    """(d, disc) for the first real fields of each discriminant class:
    disc odd, disc = 4 mod 8 and disc = 0 mod 8."""
    classes = {1: [], 4: [], 0: []}
    d = 2
    while min(len(c) for c in classes.values()) < per_class:
        if brute_is_squarefree(d):
            disc = d if d % 4 == 1 else 4 * d
            bucket = classes[1 if disc % 2 else disc % 8]
            if len(bucket) < per_class:
                bucket.append((d, disc))
        d += 1
    return [f for c in classes.values() for f in c]


def test_split_masks_match_residue_oracle():
    fields = fundamental_fields(13)
    assert len(fields) == 39
    primes = np.array(sieve_primes(2999), dtype=np.int64)
    # the list twice over, so bits run into the second word
    words = build_split_masks(primes, character_tables([disc for _, disc in fields] * 2))
    assert words.shape == (len(primes), 2) and words.dtype == np.uint64
    for i, (d, _) in enumerate(fields):
        want = [brute_splitting_q(d, p) == "split" for p in primes.tolist()]
        for f in (i, i + len(fields)):
            got = (words[:, f // 64] >> np.uint64(f % 64)) & np.uint64(1)
            assert got.astype(bool).tolist() == want, d
    assert not (words[:, 1] >> np.uint64(2 * len(fields) - 64)).any()


def test_split_masks_empty_inputs():
    assert build_split_masks(np.array([2, 3, 5], dtype=np.int64), []).shape == (3, 0)
    assert build_split_masks(np.empty(0, dtype=np.int64),
                             character_tables([5, 8])).shape == (0, 1)
    assert character_tables([]) == []
