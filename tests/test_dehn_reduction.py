"""Surface-group reduction against the rescan-from-the-start Dehn loop:
the junction scan and the resumed scan print the same words, letters are
still refused at every public entry, and the kept breadth-first spheres give
the same balls, uids and refusals as building each ball from the identity."""

import hashlib
import json
import random

import pytest

from ocs import cli
from ocs.errors import ParseError, ResourceLimitError
from ocs.groups import SurfaceGroup


def reference_free_reduce(word):
    out = []
    for letter in word:
        if out and out[-1] == -letter:
            out.pop()
        else:
            out.append(letter)
    return tuple(out)


def reference_inverse(word):
    return tuple(-letter for letter in reversed(word))


def reference_table(relator):
    half, full = len(relator) // 2, len(relator)
    table = {}
    for base in (relator, reference_inverse(relator)):
        for shift in range(full):
            rot = base[shift:] + base[:shift]
            for ln in range(half + 1, full + 1):
                sub = rot[:ln]
                if sub not in table:
                    table[sub] = reference_inverse(rot[ln:])
    return table


def reference_reduce(relator, table, word):
    """Dehn's algorithm as a rescan from position 0 after every replacement,
    with a full free reduction each time."""
    half, full = len(relator) // 2, len(relator)
    word = reference_free_reduce(word)
    while True:
        hit = None
        for pos in range(len(word)):
            top = min(full, len(word) - pos)
            for ln in range(top, half, -1):
                repl = table.get(word[pos : pos + ln])
                if repl is not None:
                    hit = (pos, ln, repl)
                    break
            if hit:
                break
        if hit is None:
            return word
        pos, ln, repl = hit
        word = reference_free_reduce(word[:pos] + repl + word[pos + ln :])


def random_word(rng, relator):
    """Random letters mixed with fragments of cyclic conjugates of the relator
    and its inverse, so that many words hold long matches."""
    letters = [k for k in range(1, len(relator) // 2 + 1)] + [
        -k for k in range(1, len(relator) // 2 + 1)
    ]
    word = []
    for _ in range(rng.randint(0, 5)):
        if rng.random() < 0.5:
            word += [rng.choice(letters) for _ in range(rng.randint(0, 4))]
        else:
            base = relator if rng.random() < 0.5 else reference_inverse(relator)
            shift = rng.randrange(len(base))
            rot = base[shift:] + base[:shift]
            word += rot[: rng.randint(1, len(rot))]
    return tuple(word)


@pytest.mark.parametrize("genus", [2, 3, 4])
def test_reduce_matches_the_rescan_loop(genus):
    s = SurfaceGroup(genus)
    table = reference_table(s.relator)
    rng = random.Random(genus)
    for _ in range(1500):
        word = random_word(rng, s.relator)
        ref = reference_reduce(s.relator, table, word)
        assert s._reduce(word) == ref, word
        assert s.is_trivial_word(word) == (not ref)


@pytest.mark.parametrize("genus", [2, 3, 4])
def test_a_replacement_that_cancels_deep_into_the_prefix(genus):
    """u r u^-1 between the two halves of a match: removing the relator r
    cancels u away, and the scan must resume before the match that the
    halves then form, 2g letters before the end of the first half."""
    s = SurfaceGroup(genus)
    r, k = s.relator, 2 * genus
    pad, u = (k,) * k, (k - 1,) * (2 * k)
    word = pad + r[: k - 1] + u + r + reference_inverse(u) + r[k - 1 : k + 1]
    ref = reference_reduce(r, reference_table(r), word)
    assert len(ref) == 2 * k - 1
    assert s._reduce(word) == ref


@pytest.mark.parametrize("genus", [2, 3, 4])
def test_products_of_reduced_words_match_the_rescan_loop(genus):
    s = SurfaceGroup(genus)
    table = reference_table(s.relator)
    rng = random.Random(100 + genus)
    words = [reference_reduce(s.relator, table, random_word(rng, s.relator)) for _ in range(80)]
    for _ in range(1500):
        a, b = rng.choice(words), rng.choice(words)
        if rng.random() < 0.5:
            b = reference_inverse(b)  # cancels at the junction whenever a ends like b
        assert s._product_payload(a, b) == reference_reduce(s.relator, table, a + b), (a, b)
        x, y = s.canonicalize(a), s.canonicalize(b)
        assert s.multiply(x, y) is s.canonicalize(a + b)


@pytest.mark.parametrize("bad", [(1, 5), (0,), (2, -9), (1.0,), ("a",)])
def test_invalid_letters_are_refused_at_every_entry(bad):
    s = SurfaceGroup(2)
    with pytest.raises(ParseError, match="not valid for genus 2"):
        s.canonicalize(bad)
    with pytest.raises(ParseError, match="not valid for genus 2"):
        s.is_trivial_word(bad)


def test_invalid_letters_are_refused_by_the_parser_and_the_cli():
    s = SurfaceGroup(2)
    for text in ("a3", "b1 c1", "a1^-2"):
        with pytest.raises(ParseError):
            s.parse_element(text)
        assert cli.main(["group", "reduce", "--group", "surface:2", "--word", text]) == 2


def ball_digest(ball):
    return hashlib.sha256(json.dumps([[x.uid, list(x.payload)] for x in ball]).encode()).hexdigest()


# (size, digest of [uid, payload] in ball order) for a fresh genus-2 group
GENUS2_BALLS = [
    (1, "cbf64f7a71e4261b81f12eaa062ea7dca12ebf62e2bfaf85fed5c4ab79b12c06"),
    (9, "ed156e6a31e34617717c1673a99c7c894c1bbbb2a29cd050bc6921e9c6bb1312"),
    (65, "7e8dd092fa638680b53ddc22f6a38e544db7a7d8200f8b4db8cc08f6f479aebd"),
    (457, "32babdd2219efb9fd3a2598bfee2c8b2f39f43486bfe5552973d8bf0edf2960b"),
    (3193, "572fc9f9bbf84a5612e2f50c66f868912b3b09689054c6b12db1af410d68afca"),
]


@pytest.mark.parametrize("radius", range(5))
def test_genus2_ball_digest(radius):
    ball = SurfaceGroup(2).enumerate_ball(radius)
    assert (len(ball), ball_digest(ball)) == GENUS2_BALLS[radius]


def test_kept_spheres_give_the_fresh_ball():
    s, fresh = SurfaceGroup(2), SurfaceGroup(2)
    two, one, three = s.enumerate_ball(2), s.enumerate_ball(1), s.enumerate_ball(3)
    ref = fresh.enumerate_ball(3)
    assert [(x.uid, x.payload) for x in three] == [(x.uid, x.payload) for x in ref]
    assert three[: len(two)] == two and three[: len(one)] == one
    assert len(s._elements) == len(fresh._elements)
    three.clear()  # the caller owns the list it was given
    assert len(s.enumerate_ball(3)) == len(ref)


def test_ball_cap_refuses_where_the_sphere_is_built():
    s = SurfaceGroup(2)
    with pytest.raises(ResourceLimitError, match="cap of 10 elements"):
        s.enumerate_ball(2, max_size=10)
    assert len(s._elements) == 0  # the growth series refuses before any product
    assert len(s.enumerate_ball(1, max_size=9)) == 9
    with pytest.raises(ResourceLimitError, match="cap of 10 elements"):
        s.enumerate_ball(2, max_size=10)
    assert len(s._elements) == 9 and len(s._spheres) == 2  # the kept ball, no more
    assert ball_digest(s.enumerate_ball(2)) == GENUS2_BALLS[2][1]  # refused sphere not kept


@pytest.mark.parametrize(
    "genus, sizes",
    [(2, [1, 9, 65, 457, 3193]), (3, [1, 13, 145, 1597]), (4, [1, 17, 257])],
)
def test_growth_series_gives_the_ball_sizes(genus, sizes):
    s = SurfaceGroup(genus)
    assert [s._ball_size(r, 10**9) for r in range(len(sizes))] == sizes
    assert [len(s.enumerate_ball(r, max_size=size)) for r, size in enumerate(sizes)] == sizes
    for r, size in enumerate(sizes[1:], 1):
        fresh = SurfaceGroup(genus)
        with pytest.raises(ResourceLimitError, match=f"cap of {size - 1} elements"):
            fresh.enumerate_ball(r, max_size=size - 1)
        assert not fresh._elements


def test_growth_series_refuses_before_any_product():
    s = SurfaceGroup(3)
    assert s._ball_size(9, 10**12) == 2_829_468_985
    assert SurfaceGroup(2)._ball_size(6, 10**12) == 155_577
    with pytest.raises(ResourceLimitError, match="cap of 100 elements"):
        s.enumerate_ball(9, max_size=100)
    assert len(s._elements) <= 1  # nothing beyond the identity interned


def test_ball_cap_refuses_a_kept_sphere():
    s = SurfaceGroup(2)
    s.enumerate_ball(3)
    with pytest.raises(ResourceLimitError):
        s.enumerate_ball(3, max_size=100)
    with pytest.raises(ResourceLimitError):
        s.enumerate_ball(1, max_size=8)
    assert len(s.enumerate_ball(2, max_size=65)) == 65
    assert len(s.enumerate_ball(0, max_size=0)) == 1  # the identity alone is never refused


def test_class_buckets_keep_each_representatives_inverse():
    s = SurfaceGroup(2)
    s.enumerate_ball(4)  # its (uid, payload) list is pinned by test_genus2_ball_digest[4]
    entries = [entry for bucket in s._buckets.values() for entry in bucket]
    assert sorted(uid for uid, _ in entries) == list(range(len(s._elements)))
    for uid, inverse in entries:
        assert inverse == reference_inverse(s.element_by_uid(uid).payload)


@pytest.mark.parametrize("genus", [2, 3])
def test_respelled_elements_find_their_class(genus):
    # half a cyclic conjugate of the relator and the inverse of the other
    # half are two Dehn-reduced spellings of one element, so the second word
    # often reduces to a payload not yet seen and is matched in its bucket
    s, rng = SurfaceGroup(genus), random.Random(genus)
    full, half = len(s.relator), len(s.relator) // 2
    letters = [k for k in range(1, half + 1)] + [-k for k in range(1, half + 1)]
    matched = 0
    for _ in range(200):
        base = s.relator if rng.random() < 0.5 else reference_inverse(s.relator)
        shift = rng.randrange(full)
        rot = base[shift:] + base[:shift]
        u, v = (tuple(rng.choice(letters) for _ in range(rng.randint(0, 3))) for _ in "uv")
        x = s.canonicalize(u + rot[:half] + v)
        seen, size = len(s._uid_by_payload), len(s._elements)
        assert s.canonicalize(u + reference_inverse(rot[half:]) + v) is x
        assert len(s._elements) == size
        matched += len(s._uid_by_payload) > seen
    assert matched > 100
