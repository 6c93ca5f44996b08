import itertools

import pytest

from ocs.errors import ParseError, ResourceLimitError
from ocs.groups import (
    FiniteGroup,
    LatticeGroup,
    SurfaceGroup,
    cyclic_group,
    group_from_spec,
    load_group,
)

GENUS2_LETTERS = [1, -1, 2, -2, 3, -3, 4, -4]


def free_reduce(word):
    out = []
    for letter in word:
        if out and out[-1] == -letter:
            out.pop()
        else:
            out.append(letter)
    return tuple(out)


def inverse(word):
    return tuple(-letter for letter in reversed(word))


def trivial_by_insertion_search(word, relator, max_depth=2):
    """Independent word-problem oracle: breadth-first insertion of cyclic
    conjugates of the relator (and its inverse) followed by free reduction;
    certifies triviality of products of <= max_depth relator conjugates."""
    variants = []
    for base in (relator, inverse(relator)):
        for s in range(len(base)):
            variants.append(base[s:] + base[:s])
    frontier = {free_reduce(word)}
    if () in frontier:
        return True
    for _ in range(max_depth):
        nxt = set()
        for w in frontier:
            for conj in variants:
                for p in range(len(w) + 1):
                    nw = free_reduce(w[:p] + conj + w[p:])
                    if not nw:
                        return True
                    nxt.add(nw)
        frontier = nxt
    return False


class TestSurface:
    def test_free_reduction(self):
        s = SurfaceGroup(2)
        assert str(s.parse_element("a1 a1^-1 b2")) == "b2"

    def test_relator_is_identity(self):
        s = SurfaceGroup(2)
        word = "a1 b1 a1^-1 b1^-1 a2 b2 a2^-1 b2^-1"
        assert str(s.parse_element(word)) == "e"

    def test_dehn_shortening(self):
        # more than half the relator is replaced by the shorter complement
        s = SurfaceGroup(2)
        reduced = s.parse_element("a1 b1 a1^-1 b1^-1 a2")
        assert str(reduced) == "b2 a2 b2^-1"
        # oracle: input * output^-1 is a product of <= 2 relator conjugates
        word = s.parse_element("a1 b1 a1^-1 b1^-1 a2").payload
        original = (1, 2, -1, -2, 3)
        assert trivial_by_insertion_search(
            original + inverse(word), s.relator
        )

    def test_equals_relator_halves(self):
        s = SurfaceGroup(2)
        lhs = s.parse_element("a1 b1 a1^-1 b1^-1")  # [a1,b1]
        rhs = s.invert(s.parse_element("a2 b2 a2^-1 b2^-1"))  # [a2,b2]^-1
        assert s.equals(lhs, rhs)

    def test_invert_word(self):
        s = SurfaceGroup(2)
        assert str(s.invert(s.parse_element("a1 b2"))) == "b2^-1 a1^-1"

    def test_mul_inverse_pair(self):
        s = SurfaceGroup(2)
        a1 = s.parse_element("a1")
        assert s.is_identity(s.multiply(a1, s.invert(a1)))

    def test_ball_sizes(self):
        s = SurfaceGroup(2)
        assert [len(s.enumerate_ball(r)) for r in range(3)] == [1, 9, 65]

    def test_ball_order_deterministic(self):
        s = SurfaceGroup(2)
        ball = s.enumerate_ball(1)
        assert [str(el) for el in ball] == [
            "e", "a1", "a1^-1", "b1", "b1^-1", "a2", "a2^-1", "b2", "b2^-1",
        ]
        again = SurfaceGroup(2).enumerate_ball(1)
        assert [el.payload for el in again] == [el.payload for el in ball]

    def test_ball_resource_guard(self):
        s = SurfaceGroup(2)
        with pytest.raises(ResourceLimitError):
            s.enumerate_ball(2, max_size=10)

    def test_short_words_nontrivial(self):
        # Greendlinger: trivial words contain more than half the relator,
        # so every nonempty freely-reduced word of length <= 4 survives
        s = SurfaceGroup(2)
        words = [()]
        for _ in range(3):
            words = [
                w + (l,)
                for w in words
                for l in GENUS2_LETTERS
                if not w or w[-1] != -l
            ]
            for w in words:
                assert not s.is_trivial_word(w)

    def test_conjugate_products_trivial(self):
        import random

        s = SurfaceGroup(2)
        rng = random.Random(5)
        for _ in range(50):
            word = ()
            for _ in range(rng.randint(1, 5)):
                conj = tuple(rng.choice(GENUS2_LETTERS) for _ in range(rng.randint(0, 4)))
                base = s.relator if rng.random() < 0.5 else inverse(s.relator)
                word = word + conj + base + inverse(conj)
            assert s.is_trivial_word(word)

    def test_parse_errors(self):
        s = SurfaceGroup(2)
        with pytest.raises(ParseError):
            s.parse_element("c1")
        with pytest.raises(ParseError):
            s.parse_element("a3")  # index exceeds genus
        with pytest.raises(ValueError):
            SurfaceGroup(1)

    def test_canonicalize_idempotent(self):
        s = SurfaceGroup(2)
        for text in ("a1 b1 a1^-1 b1^-1 a2", "a1 a1 a1", "b2^-1 a1"):
            el = s.parse_element(text)
            assert s.canonicalize(el.payload) == el


class TestLattice:
    def test_multiply(self):
        L = LatticeGroup()
        x = L.parse_element("(1,2)")
        y = L.parse_element("(3,-1)")
        assert str(L.multiply(x, y)) == "(4,1)"

    def test_invert(self):
        L = LatticeGroup()
        assert str(L.invert(L.parse_element("(2,-3)"))) == "(-2,3)"

    def test_equals(self):
        L = LatticeGroup()
        assert not L.equals(L.parse_element("(1,0)"), L.parse_element("(0,1)"))
        x = L.parse_element("(5,7)")
        assert L.equals(x, x)

    def test_ball(self):
        L = LatticeGroup()
        assert len(L.enumerate_ball(1)) == 5
        assert len(L.enumerate_ball(2)) == 13

    def test_parse_error(self):
        with pytest.raises(ParseError):
            LatticeGroup().parse_element("1,2")


class TestFinite:
    def test_c2_squares(self):
        C2 = cyclic_group(2)
        g = C2.parse_element("g")
        assert C2.is_identity(C2.multiply(g, g))

    def test_c3_inverse(self):
        C3 = cyclic_group(3)
        g = C3.parse_element("g")
        assert C3.invert(g) == C3.parse_element("g2")

    def test_ball_is_whole_group(self):
        C3 = cyclic_group(3)
        assert len(C3.enumerate_ball(0)) == 1
        assert len(C3.enumerate_ball(1)) == 3
        assert len(C3.enumerate_ball(7)) == 3

    def test_table_validation(self):
        # identity and inverses hold, but (a*a)*b != a*(a*b)
        with pytest.raises(ValueError, match="associative"):
            FiniteGroup(["e", "a", "b"], [[0, 1, 2], [1, 0, 1], [2, 2, 0]])
        with pytest.raises(ValueError, match="identity"):
            FiniteGroup(["a", "b"], [[1, 1], [1, 1]])
        with pytest.raises(ValueError, match="closure"):
            FiniteGroup(["e", "g"], [[0, 1], [1, 5]])
        with pytest.raises(ValueError, match="square"):
            FiniteGroup(["e", "g"], [[0, 1]])

    def test_spec_loading(self):
        ctx = group_from_spec(
            {"kind": "finite", "elements": ["e", "g"], "table": [[0, 1], [1, 0]]}
        )
        assert ctx.order == 2
        assert isinstance(group_from_spec({"kind": "lattice"}), LatticeGroup)
        surf = group_from_spec({"kind": "surface", "genus": 3})
        assert surf.genus == 3
        with pytest.raises(ParseError):
            group_from_spec({"kind": "unknown"})

    def test_builtins(self):
        assert load_group("trivial").order == 1
        assert load_group("C2").order == 2
        assert load_group("C3").order == 3
        assert isinstance(load_group("lattice"), LatticeGroup)
        assert load_group("surface:2").genus == 2
        with pytest.raises(ParseError):
            load_group("no-such-group")

    def test_spec_file(self, tmp_path):
        path = tmp_path / "klein.json"
        path.write_text(
            '{"kind":"finite","elements":["e","a","b","c"],'
            '"table":[[0,1,2,3],[1,0,3,2],[2,3,0,1],[3,2,1,0]]}'
        )
        ctx = load_group(str(path))
        assert ctx.order == 4


@pytest.mark.parametrize(
    "make",
    [lambda: cyclic_group(3), LatticeGroup, lambda: SurfaceGroup(2)],
    ids=["finite", "lattice", "surface"],
)
def test_group_laws(make):
    ctx = make()
    pool = ctx.enumerate_ball(1)
    ident = ctx.identity()
    for x, y, z in itertools.islice(itertools.product(pool, repeat=3), 200):
        assert ctx.equals(
            ctx.multiply(ctx.multiply(x, y), z), ctx.multiply(x, ctx.multiply(y, z))
        )
    for x in pool:
        assert ctx.equals(ctx.multiply(x, ident), x)
        assert ctx.equals(ctx.multiply(ident, x), x)
        assert ctx.is_identity(ctx.multiply(x, ctx.invert(x)))


def test_equals_is_congruence():
    s = SurfaceGroup(2)
    # two spellings of one element
    x = s.parse_element("a2")
    x_alt = s.canonicalize((1, 2, -1, -2, 3, 4, -3, -4) + (3,))  # relator * a2
    assert s.equals(x, x_alt)
    for text in ("b1", "a1 b2", "a2^-1 b1"):
        z = s.parse_element(text)
        assert s.equals(s.multiply(z, x), s.multiply(z, x_alt))
        assert s.equals(s.multiply(x, z), s.multiply(x_alt, z))


def test_backend_mismatch():
    C2 = cyclic_group(2)
    other = cyclic_group(2)
    with pytest.raises(ValueError, match="mismatch"):
        C2.multiply(C2.identity(), other.identity())


def s3_group():
    perms = list(itertools.permutations(range(3)))
    index = {p: i for i, p in enumerate(perms)}
    table = [[index[tuple(a[b[k]] for k in range(3))] for b in perms] for a in perms]
    return FiniteGroup(["".join(map(str, p)) for p in perms], table)


BACKENDS = {
    "trivial": lambda: cyclic_group(1),
    "C2": lambda: cyclic_group(2),
    "C3": lambda: cyclic_group(3),
    "S3": s3_group,
    "lattice": LatticeGroup,
    "surface:2": lambda: SurfaceGroup(2),
}


@pytest.mark.parametrize(
    "name, radii",
    [("trivial", 3), ("C2", 3), ("C3", 3), ("S3", 3), ("lattice", 5), ("surface:2", 4)],
)
def test_closed_form_ball_size_is_the_enumerated_size(name, radii):
    group = BACKENDS[name]()
    for r in range(radii):
        assert group.ball_size(r, 10**9) == len(BACKENDS[name]().enumerate_ball(r))


@pytest.mark.parametrize("name", sorted(BACKENDS))
def test_identity_ball_is_never_refused_and_radius_1_refuses_first(name):
    group = BACKENDS[name]()
    assert group.enumerate_ball(0, max_size=0) == [group.identity()]
    interned = len(group._elements)
    for r in (1, 2):
        if name == "trivial":  # every ball is the identity alone
            assert group.enumerate_ball(r, max_size=0) == [group.identity()]
            continue
        with pytest.raises(ResourceLimitError, match="cap of 0 elements"):
            group.enumerate_ball(r, max_size=0)
        with pytest.raises(ResourceLimitError, match="cap of 0 elements"):
            group.ball_size(r, 0)
        assert len(group._elements) == interned and len(group._spheres) == 1


@pytest.mark.parametrize(
    "group, raw",
    [
        (LatticeGroup(), (1.5, 0)),
        (LatticeGroup(), ("3", 0)),
        (LatticeGroup(), (True, 0)),
        (LatticeGroup(), (0, 2.0)),
        (SurfaceGroup(2), (True,)),
        (SurfaceGroup(2), (1, 2.0)),
        (cyclic_group(2), (True,)),
        (cyclic_group(2), (1.0,)),
    ],
)
def test_raw_payload_entries_must_be_ints(group, raw):
    interned = len(group._elements)
    with pytest.raises(ParseError):
        group.canonicalize(raw)
    assert len(group._elements) == interned
