import itertools
import random
from fractions import Fraction

from ocs import lyndon


def brute_lyndon_words(alphabet, max_len):
    out = {m: [] for m in range(1, max_len + 1)}
    for m in range(1, max_len + 1):
        for w in itertools.product(sorted(alphabet), repeat=m):
            if lyndon.is_lyndon(w):
                out[m].append(w)
    return out


def test_duval_matches_bruteforce():
    for size in (1, 2, 3):
        alphabet = list(range(size))
        assert lyndon.lyndon_words(alphabet, 4) == brute_lyndon_words(alphabet, 4)


def test_witt_counts_match_enumeration():
    for size in (1, 2, 4):
        words = lyndon.lyndon_words(list(range(size)), 4)
        for ell in range(1, 5):
            assert lyndon.lyndon_count(size, ell) == len(words[ell])


def test_witt_counts_match_the_sum_over_every_divisor():
    # lyndon_count pairs each divisor d <= sqrt(length) with length // d;
    # squares (4, 36, 144) must be counted once
    for size in (1, 2, 3, 7):
        for ell in range(1, 150):
            divisors = [d for d in range(1, ell + 1) if ell % d == 0]
            total = sum(lyndon._mobius(d) * size ** (ell // d) for d in divisors)
            assert lyndon.lyndon_count(size, ell) == total // ell


def test_necklace_examples():
    assert lyndon.lyndon_count(2, 2) == 1
    assert lyndon.lyndon_count(4, 2) == 6
    assert lyndon.lyndon_count(2, 3) == 2
    assert lyndon.lyndon_count(4, 3) == 20


def test_standard_factorization():
    # suffix is the lexicographically least proper suffix
    assert lyndon.standard_factorization((0, 1)) == ((0,), (1,))
    assert lyndon.standard_factorization((0, 0, 1)) == ((0,), (0, 1))
    assert lyndon.standard_factorization((0, 1, 1)) == ((0, 1), (1,))


def test_bracket_tensor_triangular():
    # the expansion of b(w) is w plus strictly larger anagrams
    for w in [ws for m in (2, 3, 4) for ws in lyndon.lyndon_words([0, 1], 4)[m]]:
        expansion = lyndon.bracket_tensor(w)
        assert expansion[w] == 1
        assert all(u >= w for u in expansion)


def test_pair_bracket_matches_tensor_route():
    rng = random.Random(7)
    words = [w for m in (1, 2, 3) for w in lyndon.lyndon_words([0, 1, 2], 3)[m]]
    for _ in range(150):
        u, v = rng.choice(words), rng.choice(words)
        fast = lyndon.free_lie_bracket({u: Fraction(1)}, {v: Fraction(1)})
        slow = lyndon.free_lie_bracket_by_tensor({u: Fraction(1)}, {v: Fraction(1)})
        assert fast == slow


def test_lyndon_coordinates_of_bracketings():
    for w in lyndon.lyndon_words([0, 1], 4)[3] + lyndon.lyndon_words([0, 1], 4)[4]:
        tensor = {u: Fraction(c) for u, c in lyndon.bracket_tensor(w).items()}
        assert lyndon.lyndon_coordinates(tensor) == {w: Fraction(1)}


def test_free_lie_antisymmetry_and_jacobi():
    rng = random.Random(11)
    words = [w for m in (1, 2) for w in lyndon.lyndon_words([0, 1, 2], 2)[m]]

    def rand_combo():
        return {
            rng.choice(words): Fraction(rng.randint(-2, 2))
            for _ in range(2)
        }

    def add(a, b, sign=1):
        out = dict(a)
        for w, c in b.items():
            nv = out.get(w, Fraction(0)) + sign * c
            if nv:
                out[w] = nv
            else:
                out.pop(w, None)
        return out

    for _ in range(60):
        x, y, z = rand_combo(), rand_combo(), rand_combo()
        assert lyndon.free_lie_bracket(x, x) == {}
        assert add(
            lyndon.free_lie_bracket(x, y), lyndon.free_lie_bracket(y, x)
        ) == {}
        jac = add(
            add(
                lyndon.free_lie_bracket(x, lyndon.free_lie_bracket(y, z)),
                lyndon.free_lie_bracket(y, lyndon.free_lie_bracket(z, x)),
            ),
            lyndon.free_lie_bracket(z, lyndon.free_lie_bracket(x, y)),
        )
        assert jac == {}
