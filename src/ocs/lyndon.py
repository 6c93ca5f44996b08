"""Free Lie algebra machinery over an ordered alphabet: Lyndon words,
standard bracketings, tensor-algebra expansions, and conversion of Lie
elements to Lyndon coordinates.

Letters are arbitrary hashable, mutually comparable objects (int tuples
throughout this package); a word is a tuple of letters.  A Lyndon word is
strictly smaller than every proper cyclic rotation of itself; the Lyndon
words of length m index a basis of the degree-m part of the free Lie
algebra, with a word w standing for its standard right bracketing
b(w) = [b(u), b(v)] where v is the lexicographically least proper suffix.

The expansion of b(w) in the tensor algebra is w plus an integer
combination of strictly larger anagrams of w, so Lie elements given in
tensor coordinates are converted back to the Lyndon basis by a triangular
elimination: repeatedly strip the least surviving word, which must be
Lyndon, and subtract its bracketing.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Sequence, Tuple

from .sparse import add_into

Word = Tuple


def is_lyndon(word: Word) -> bool:
    n = len(word)
    if n == 0:
        return False
    for k in range(1, n):
        if word >= word[k:] + word[:k]:
            return False
    return True


def standard_factorization(word: Word) -> tuple[Word, Word]:
    """Split a Lyndon word of length >= 2 as u v with v the least proper suffix."""
    n = len(word)
    if n < 2:
        raise ValueError("standard factorization needs length >= 2")
    v = min(word[i:] for i in range(1, n))
    return word[: n - len(v)], v


def lyndon_words(alphabet: Sequence, max_len: int) -> Dict[int, list]:
    """All Lyndon words over ``alphabet`` of length 1..max_len, by length.

    Duval's algorithm; each length bucket comes out in lexicographic order.
    """
    letters = sorted(alphabet)
    k = len(letters)
    out: Dict[int, list] = {m: [] for m in range(1, max_len + 1)}
    if k == 0 or max_len == 0:
        return out
    w = [0]
    while True:
        out[len(w)].append(tuple(letters[i] for i in w))
        w = [w[i % len(w)] for i in range(max_len)]
        while w and w[-1] == k - 1:
            w.pop()
        if not w:
            return out
        w[-1] += 1


def _mobius(n: int) -> int:
    if n == 1:
        return 1
    result, m, p = 1, n, 2
    while p * p <= m:
        if m % p == 0:
            m //= p
            if m % p == 0:
                return 0
            result = -result
        p += 1
    if m > 1:
        result = -result
    return result


def lyndon_count(alphabet_size: int, length: int) -> int:
    """Number of Lyndon words of the given length (necklace / Witt formula)."""
    if length < 1:
        raise ValueError("length must be >= 1")
    total, d = 0, 1
    while d * d <= length:  # divisors in pairs (d, length // d)
        if length % d == 0:
            total += _mobius(d) * alphabet_size ** (length // d)
            if d * d != length:
                total += _mobius(length // d) * alphabet_size ** d
        d += 1
    assert total % length == 0
    return total // length


_BRACKET_CACHE: Dict[Word, Dict[Word, int]] = {}


def bracket_tensor(word: Word) -> Dict[Word, int]:
    """Tensor-algebra expansion of the standard bracketing of a Lyndon word.

    Returned dicts are cached and must not be mutated.
    """
    cached = _BRACKET_CACHE.get(word)
    if cached is not None:
        return cached
    if len(word) == 1:
        result = {word: 1}
    else:
        u, v = standard_factorization(word)
        eu, ev = bracket_tensor(u), bracket_tensor(v)
        result = {}
        for wu, cu in eu.items():
            for wv, cv in ev.items():
                key = wu + wv
                result[key] = result.get(key, 0) + cu * cv
                key = wv + wu
                result[key] = result.get(key, 0) - cu * cv
        result = {k: c for k, c in result.items() if c}
    _BRACKET_CACHE[word] = result
    return result


def lyndon_coordinates(tensor: Dict[Word, Fraction]) -> Dict[Word, Fraction]:
    """Coordinates of a Lie element (given in tensor coordinates) in the
    Lyndon basis.  Raises if the input is not a Lie element."""
    work = {w: Fraction(c) for w, c in tensor.items() if c}
    out: Dict[Word, Fraction] = {}
    while work:
        w = min(work)
        if not is_lyndon(w):
            raise ValueError("tensor element is not in the free Lie algebra")
        c = work[w]
        out[w] = out.get(w, Fraction(0)) + c
        add_into(work, bracket_tensor(w), -c)
    return {w: c for w, c in out.items() if c}


_PAIR_CACHE: Dict[Tuple[Word, Word], Dict[Word, int]] = {}


def lyndon_pair_bracket(u: Word, v: Word) -> Dict[Word, int]:
    """[b(u), b(v)] in the Lyndon basis, for Lyndon words u and v.

    Classical recursion: for u < v the concatenation uv is Lyndon, and it
    has standard factorization (u, v) exactly when u is a letter or the
    right factor of u is >= v, in which case the bracket is the single
    basis word uv.  Otherwise split u = u1 u2 and use Jacobi,

        [b(u), b(v)] = [b(u1), [b(u2), b(v)]] - [b(u2), [b(u1), b(v)]],

    which strictly decreases (|u|+|v|, |u|) lexicographically.  Returned
    dicts are cached and must not be mutated.
    """
    if u == v:
        return {}
    if v < u:
        return {w: -c for w, c in lyndon_pair_bracket(v, u).items()}
    key = (u, v)
    cached = _PAIR_CACHE.get(key)
    if cached is not None:
        return cached
    if len(u) == 1 or standard_factorization(u)[1] >= v:
        result = {u + v: 1}
    else:
        u1, u2 = standard_factorization(u)
        result: Dict[Word, int] = {}
        for w, c in lyndon_pair_bracket(u2, v).items():
            add_into(result, lyndon_pair_bracket(u1, w), c)
        for w, c in lyndon_pair_bracket(u1, v).items():
            add_into(result, lyndon_pair_bracket(u2, w), -c)
    _PAIR_CACHE[key] = result
    return result


def free_lie_bracket(
    a: Dict[Word, Fraction], b: Dict[Word, Fraction]
) -> Dict[Word, Fraction]:
    """Bracket of two Lyndon-coordinate elements of one free Lie algebra."""
    out: Dict[Word, Fraction] = {}
    for wu, cu in a.items():
        for wv, cv in b.items():
            c = cu * cv
            if c:
                add_into(out, lyndon_pair_bracket(wu, wv), c)
    return out


def free_lie_bracket_by_tensor(
    a: Dict[Word, Fraction], b: Dict[Word, Fraction]
) -> Dict[Word, Fraction]:
    """Same bracket computed through the tensor algebra and triangular
    elimination; kept as an independent route for cross-checking."""
    tensor: Dict[Word, Fraction] = {}
    for wu, cu in a.items():
        eu = bracket_tensor(wu)
        for wv, cv in b.items():
            ev = bracket_tensor(wv)
            c = cu * cv
            if not c:
                continue
            for tu, ku in eu.items():
                for tv, kv in ev.items():
                    k = c * ku * kv
                    add_into(tensor, {tu + tv: k})
                    add_into(tensor, {tv + tu: -k})
    return lyndon_coordinates(tensor)
