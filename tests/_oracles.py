"""Independent float-side oracles shared by test modules.

PRINTED_TABLE_PI_FRACTIONS transcribes the degree <= 4 prime-power spectra
table directly as fractions of pi in the exponent (value = e^(i*pi*f)),
separately from the package's exact transcription.

The numpy_* functions are the fusion-tensor kernels as they stood when the
tensor was a numpy int64 array (einsum associativity, matrix-product
commutativity, np.ix_ relabelling). They oracle the pure-int kernels and
skip the calling test when numpy is not installed.
"""

from itertools import permutations

import pytest

PRINTED_TABLE_PI_FRACTIONS = {
    (2, "even", 2): [[0.0, 1.0]],
    (2, "odd", 3): [[0.0, 2 / 3], [2 / 3, 4 / 3], [4 / 3, 0.0]],
    (2, "odd", 4): [[1 / 2, 3 / 2]],
    (2, "odd", 5): [[2 / 5, 8 / 5], [4 / 5, 6 / 5]],
    (2, "even", 8): [[5 / 4, 7 / 4], [1 / 4, 3 / 4]],
    (2, "odd", 8): [[3 / 4, 5 / 4], [7 / 4, 1 / 4]],
    (3, "even", 3): [[2 / 3, 4 / 3, 0.0]],
    (3, "odd", 4): [[1 / 2, 1.0, 0.0], [3 / 2, 0.0, 1.0]],
    (3, "even", 4): [[1.0, 3 / 2, 1 / 2], [0.0, 1 / 2, 3 / 2]],
    (3, "even", 5): [[0.0, 2 / 5, 8 / 5], [0.0, 4 / 5, 6 / 5]],
    (3, "even", 7): [[4 / 7, 2 / 7, 8 / 7], [10 / 7, 12 / 7, 6 / 7]],
    (3, "odd", 8): [
        [1.0, 5 / 4, 1 / 4],
        [0.0, 1 / 4, 5 / 4],
        [1.0, 7 / 4, 3 / 4],
        [0.0, 3 / 4, 7 / 4],
    ],
    (3, "even", 8): [
        [3 / 2, 7 / 4, 3 / 4],
        [1 / 2, 3 / 4, 7 / 4],
        [1 / 2, 5 / 4, 1 / 4],
        [3 / 2, 1 / 4, 5 / 4],
    ],
    (3, "odd", 16): [
        [5 / 4, 1 / 8, 9 / 8],
        [1 / 4, 9 / 8, 1 / 8],
        [1 / 4, 5 / 8, 13 / 8],
        [5 / 4, 13 / 8, 5 / 8],
        [7 / 4, 3 / 8, 11 / 8],
        [3 / 4, 11 / 8, 3 / 8],
        [3 / 4, 15 / 8, 7 / 8],
        [7 / 4, 15 / 8, 7 / 8],
    ],
    (3, "even", 16): [
        [7 / 4, 5 / 8, 13 / 8],
        [3 / 4, 13 / 8, 5 / 8],
        [3 / 4, 9 / 8, 1 / 8],
        [7 / 4, 1 / 8, 9 / 8],
        [5 / 4, 15 / 8, 7 / 8],
        [1 / 4, 7 / 8, 15 / 8],
        [5 / 4, 3 / 8, 11 / 8],
        [1 / 4, 11 / 8, 3 / 8],
    ],
    (4, "odd", 5): [[2 / 5, 4 / 5, 6 / 5, 8 / 5]],
    (4, "even", 5): [[2 / 5, 4 / 5, 6 / 5, 8 / 5]],
    (4, "odd", 7): [
        [0.0, 2 / 7, 8 / 7, 4 / 7],
        [0.0, 12 / 7, 6 / 7, 10 / 7],
    ],
    (4, "odd", 8): [[1 / 4, 3 / 4, 5 / 4, 7 / 4]],
    (4, "even", 8): [[1 / 4, 3 / 4, 5 / 4, 7 / 4]],
    (4, "odd", 9): [
        [2 / 9, 8 / 9, 14 / 9, 2 / 3],
        [2 / 9, 8 / 9, 14 / 9, 4 / 3],
        [2 / 9, 8 / 9, 14 / 9, 0.0],
        [16 / 9, 10 / 9, 4 / 9, 4 / 3],
        [16 / 9, 10 / 9, 4 / 9, 0.0],
        [16 / 9, 10 / 9, 4 / 9, 2 / 3],
    ],
    (4, "even", 9): [
        [2 / 9, 8 / 9, 14 / 9, 2 / 3],
        [2 / 9, 8 / 9, 14 / 9, 4 / 3],
        [2 / 9, 8 / 9, 14 / 9, 0.0],
        [16 / 9, 10 / 9, 4 / 9, 4 / 3],
        [16 / 9, 10 / 9, 4 / 9, 0.0],
        [16 / 9, 10 / 9, 4 / 9, 2 / 3],
    ],
}


def match_rendered_spectra(rendered_sets, expected_sets, tol):
    """Greedy one-to-one matching of rendered value-sets against expected
    float sets; returns True iff a complete matching within tol exists."""
    if len(rendered_sets) != len(expected_sets):
        return False
    matched = set()
    for got in rendered_sets:
        hit = None
        for idx, exp in enumerate(expected_sets):
            if idx in matched:
                continue
            if len(got) == len(exp) and all(
                min(abs(g - e) for e in exp) < tol for g in got
            ):
                hit = idx
                break
        if hit is None:
            return False
        matched.add(hit)
    return True


def numpy_verify_invariants(fusion):
    """FusionRules.verify_invariants on a numpy int64 tensor."""
    np = pytest.importorskip("numpy")
    r, N, dual = fusion.rank, np.array(fusion.tensor, dtype=np.int64), fusion.dual
    bad = []
    for i in range(r):
        for j in range(r):
            for k in range(r):
                if N[i, j, k] != N[j, i, k]:
                    bad.append(f"N[{i},{j}]^{k} != N[{j},{i}]^{k}")
                if N[i, j, k] != N[i, dual[k], dual[j]]:
                    bad.append(f"N[{i},{j}]^{k} != N[i,k*]^(j*)")
                if N[i, j, k] != N[dual[i], dual[j], dual[k]]:
                    bad.append(f"N[{i},{j}]^{k} != N[i*,j*]^(k*)")
            if N[i, j, 0] != (1 if dual[i] == j else 0):
                bad.append(f"N[{i},{j}]^0 != delta(i, j*)")
            if N[0, i, j] != (1 if i == j else 0):
                bad.append(f"N[0,{i}]^{j} != delta({i},{j})")
    assoc = np.einsum("ijm,mkl->ijkl", N, N) - np.einsum("jkm,iml->ijkl", N, N)
    if assoc.any():
        i, j, k, l = np.argwhere(assoc)[0]
        bad.append(f"associativity fails at ({i},{j},{k},{l})")
    mats = [N[i].T.copy() for i in range(r)]
    for i in range(r):
        for j in range(i + 1, r):
            if not np.array_equal(mats[i] @ mats[j], mats[j] @ mats[i]):
                bad.append(f"N_{i} and N_{j} do not commute")
    return bad


def numpy_grothendieck_equiv(f1, f2):
    """classifier.grothendieck_equiv by np.ix_ relabelling (rank budget aside)."""
    np = pytest.importorskip("numpy")
    if f1.rank != f2.rank:
        return None
    t1, t2 = np.array(f1.tensor, dtype=np.int64), np.array(f2.tensor, dtype=np.int64)
    for rest in permutations(range(1, f1.rank)):
        perm = np.array((0,) + rest)
        if np.array_equal(t2[np.ix_(perm, perm, perm)], t1):
            return tuple(int(v) for v in perm)
    return None


def numpy_relabel_fusion(fusion, perm):
    """classifier.relabel_fusion by np.ix_: (tensor as nested lists, dual)."""
    np = pytest.importorskip("numpy")
    r = fusion.rank
    inv = np.empty(r, dtype=int)
    for i, p in enumerate(perm):
        inv[p] = i
    tensor = np.array(fusion.tensor, dtype=np.int64)[np.ix_(inv, inv, inv)]
    dual = tuple(perm[fusion.dual[inv[i]]] for i in range(r))
    return tensor.tolist(), dual
