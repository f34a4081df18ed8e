"""Every binary matroid on at most 8 elements, one per isomorphism class,
checked on each route that decides it.

The matroids are grown one element at a time: to each matroid on n - 1
elements, with a GF(2) matrix of max(r, 1) rows, add every column of that
many entries (the zero column included) or a coloop in a row of its own,
and keep one matroid per `iso_key`.  Every binary matroid on n elements
arises so from the deletion of its last element.  The counts per n are
pinned as this growth finds them.

`check_binary_matroids(9)` runs the same checks one size further (848
matroids, about 12 s); CI runs it as a step of its own:

    PYTHONPATH=src python -c "import sys; sys.path.insert(0, 'tests');
        import test_binary_matroids as t; sys.exit(t.check_binary_matroids(9) != t.COUNTS)"
"""

import random

from matroidkit import gf
from matroidkit.gf import GFMatrix
from matroidkit.iso import are_isomorphic, iso_key
from matroidkit.matroid import as_rank_table, from_matrix, is_isomorphism
from matroidkit.uniformity import is_22_uniform_circuits, is_kl_uniform_flats, is_kl_uniform_minor

COUNTS = (2, 4, 8, 16, 32, 68, 148, 342, 848)  # n = 1 ... 9


def _grown(level):
    """One matroid per iso_key among the one-element extensions of level."""
    kept = {}
    for m in level:
        mat = m.rep.matrix
        cols = [list(c) for c in zip(*mat.rows)]
        news = [(mat.nrows, [v >> i & 1 for i in range(mat.nrows)])
                for v in range(1 << mat.nrows)]
        if m.rank():  # a rank-0 matroid's coloop is the column (1)
            news.append((mat.nrows + 1, [0] * mat.nrows + [1]))
        for rows, new in news:
            grown = [c + [0] * (rows - len(c)) for c in cols] + [new]
            x = from_matrix(GFMatrix.from_columns(2, grown))
            kept.setdefault(iso_key(x), x)
    return kept


def _check(m, keys, rng):
    """Both deciders on the matrix and on its rank table, the circuit
    decider, an isomorphic copy, the dual and the circuit walk of m."""
    r, n = m.rank(), m.n
    table = as_rank_table(m)
    for k in range(1, r + 1):
        for l in range(1, n - r + 1):
            flats, minor = is_kl_uniform_flats(m, k, l), is_kl_uniform_minor(m, k, l)
            assert flats == is_kl_uniform_flats(table, k, l), (m.rep.matrix.rows, k, l)
            assert minor == is_kl_uniform_minor(table, k, l), (m.rep.matrix.rows, k, l)
            assert flats[0] == minor[0], (m.rep.matrix.rows, k, l)
    assert is_22_uniform_circuits(m) == is_kl_uniform_flats(m, 2, 2)[0], m.rep.matrix.rows
    order = rng.sample(range(n), n)
    moved = gf.rref(m.rep.matrix.select_columns(order))[0]
    copy = from_matrix(moved, [m.labels[j] + "'" for j in order])
    mapping = are_isomorphic(m, copy)
    assert mapping is not None and is_isomorphism(m, copy, mapping), m.rep.matrix.rows
    assert iso_key(m.dual()) in keys, m.rep.matrix.rows
    # a binary matrix of corank <= 16 reads its circuits off its cycle space
    walked = sorted(gf._circuits(m.rep.matrix, r + 1), key=lambda v: (v.bit_count(), v))
    assert tuple(walked) == m.circuits(), m.rep.matrix.rows


def check_binary_matroids(top):
    """Grow every binary matroid on 1 ... top elements, check each
    (`_check`), and return the number of them per n."""
    rng, counts = random.Random(top), []
    level = [from_matrix(GFMatrix(2, [[]]))]  # the empty matroid
    for _ in range(top):
        kept = _grown(level)
        level = list(kept.values())
        for m in level:
            _check(m, kept, rng)
        counts.append(len(level))
    return tuple(counts)


def test_every_binary_matroid_up_to_8_elements():
    assert check_binary_matroids(8) == COUNTS[:8]
