import itertools

from pkernels import weyl


def _inversions(w):
    return sum(1 for a, b in itertools.combinations(range(len(w)), 2) if w[a] > w[b])


def test_compose_is_function_composition():
    for h in (2, 3, 4):
        perms = list(weyl.all_permutations(h))
        for u in perms:
            for v in perms:
                w = weyl.compose(u, v)
                for j in range(1, h + 1):
                    assert w[j - 1] == u[v[j - 1] - 1]


def test_inverse():
    for h in (2, 3, 4):
        for u in weyl.all_permutations(h):
            ui = weyl.inverse(u)
            assert weyl.compose(u, ui) == weyl.identity(h)
            assert weyl.compose(ui, u) == weyl.identity(h)


def longest_element(h, subset=None):
    """Longest element of the parabolic subgroup generated by ``subset``
    (the full group when subset is None): each run of the parabolic
    reversed.  The reference for the standard representatives."""
    subset = weyl.simple_pairs(h) if subset is None else set(subset)
    if not subset <= weyl.simple_pairs(h):
        raise ValueError('not a set of simple reflections of S_%d' % h)
    w = []
    for a, b in weyl._runs(h, subset):
        w.extend(range(b, a - 1, -1))
    return tuple(w)


def test_longest_element():
    assert longest_element(3) == (3, 2, 1)
    assert longest_element(3, set()) == (1, 2, 3)
    assert longest_element(3, {(2, 3)}) == (1, 3, 2)
    for h in (1, 2, 3, 4, 5):
        w0 = longest_element(h)
        assert w0 == tuple(range(h, 0, -1))
        assert _inversions(w0) == h * (h - 1) // 2
    # parabolic longest element reverses within the subset only
    sub = frozenset({(1, 2), (2, 3)})
    assert longest_element(4, sub) == (3, 2, 1, 4)


def test_transposition():
    t = weyl.transposition(4, 2, 4)
    assert t == (1, 4, 3, 2)
    assert weyl.compose(t, t) == weyl.identity(4)


def test_simple_pairs():
    assert weyl.simple_pairs(3) == frozenset({(1, 2), (2, 3)})
    assert weyl.simple_pairs(1) == frozenset()


def test_min_coset_reps_partition():
    # reps are minimal-length elements of distinct cosets W_I·w and
    # every permutation lies in exactly one such coset
    for h in (2, 3, 4):
        for subset in (frozenset(), frozenset({(1, 2)}), weyl.simple_pairs(h)):
            reps = weyl.min_coset_reps(h, subset)
            # generated subgroup of the parabolic
            gens = [weyl.transposition(h, i, j) for (i, j) in subset]
            par = {weyl.identity(h)}
            frontier = list(par)
            while frontier:
                nxt = []
                for u in frontier:
                    for g in gens:
                        v = weyl.compose(u, g)
                        if v not in par:
                            par.add(v)
                            nxt.append(v)
                frontier = nxt
            cosets = set()
            for rep in reps:
                cs = frozenset(weyl.compose(u, rep) for u in par)
                assert all(_inversions(rep) <= _inversions(w) for w in cs)
                cosets.add(cs)
            assert len(cosets) == len(reps)
            assert sum(len(cs) for cs in cosets) == len(list(weyl.all_permutations(h)))


def test_min_coset_reps_sorted():
    for h in (3, 4):
        reps = weyl.min_coset_reps(h, frozenset({(1, 2)}))
        assert list(reps) == sorted(reps)


def _brute_min_coset_reps(h, subset):
    # every permutation whose inverse increases across each swap in subset
    reps = []
    for w in itertools.permutations(range(1, h + 1)):
        wi = weyl.inverse(w)
        if all(wi[i - 1] < wi[j - 1] for (i, j) in subset):
            reps.append(w)
    return reps


def test_min_coset_reps_match_brute_force():
    for h in range(1, 8):
        pairs = sorted(weyl.simple_pairs(h))
        for k in range(len(pairs) + 1):
            for subset in itertools.combinations(pairs, k):
                assert weyl.min_coset_reps(h, subset) == _brute_min_coset_reps(h, subset), \
                    (h, subset)


def test_all_permutations_count():
    assert len(list(weyl.all_permutations(4))) == 24
    assert set(weyl.all_permutations(4)) == set(itertools.permutations(range(1, 5)))
