"""Decoration-group backends: finite tables, the rank-2 lattice, and
genus-g surface groups with the word problem solved by Dehn's algorithm.

All algebra layers consume the same small interface: exact multiplication,
inversion, equality, canonical forms, and breadth-first balls, whose exact
sizes every backend knows:

* ``FiniteGroup`` -- explicit multiplication table (order <= 512), fully
  validated at load (closure, identity, inverses, Light's associativity test);
  every other element is a generator, so a ball of radius >= 1 is the group.
* ``LatticeGroup`` -- the free abelian group on two generators (genus 1),
  with 2r(r + 1) + 1 elements in the ball of radius r.
* ``SurfaceGroup`` -- the one-relator presentation
  < a1, b1, .., ag, bg | [a1,b1]...[ag,bg] > for genus g >= 2, whose ball
  sizes are the partial sums of Cannon's growth series.  Words are
  kept freely reduced and Dehn-reduced: the leftmost, then longest, subword
  matching more than half of a cyclic conjugate of the relator (or its
  inverse) is replaced by the inverse of the complement, which strictly
  shortens the word.  The presentation is C'(1/6) small cancellation, so by
  Greendlinger's lemma a nonempty Dehn-reduced word is never trivial; this
  decides the word problem.

Registry payloads are reduced, and so are their inverses (the matches are
closed under inversion), so ``invert`` reduces nothing, letters are checked
only where raw words enter (``canonicalize``, ``parse_element``,
``is_trivial_word``), and a product of two reduced words can match only
across the junction: it is cancelled there and scanned from 4g - 1 letters
before it.  After a replacement the scan resumes 4g - 1 letters before the
first changed letter, as an earlier match (at most 4g letters) would lie in
the prefix already passed: each step is the one a rescan from the start
would take, so every word is the same.

Dehn-reduced words are not unique normal forms, so element identity goes
through an interning registry that keeps one ``GroupElement`` per class,
with a stable integer uid in the order classes are first seen.  An
element hashes to its uid and compares by (group, uid), so elements of two
groups never collide as keys.  Classes are bucketed by their
abelianization, each with its representative's reduced inverse, and only
same-bucket representatives are compared via the word problem (one
product with that inverse).  ``multiply`` and ``invert`` memoize per
group by uid pair (or uid); a miss interns the same way, so uids and
representatives do not depend on the memo.  ``enumerate_ball`` keeps its
spheres and extends them for a larger radius.  ``ball_size`` is the one
refusal of a ball past ``max_size`` elements, from the closed form and
before any product; ``enumerate_ball`` calls it first.  Elements refer to
their group, so a dropped group is freed by the cyclic garbage collector.

Contexts mutate only their registry, memo and kept spheres, and are not
synchronized; confine each context to a single thread.
"""

from __future__ import annotations

import json
import re
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .errors import ParseError, ResourceLimitError

Payload = Tuple

MAX_FINITE_ORDER = 512  # larger tables are refused; validation is n^2 log n


class GroupElement:
    """An interned group element; equality and hashing go through the uid,
    so distinct spellings of one element compare equal once canonicalized.
    Frozen: its fields are set once, in ``__init__``."""

    __slots__ = ("ctx", "payload", "uid")
    ctx: "GroupContext"
    payload: Payload
    uid: int

    def __init__(self, ctx: "GroupContext", payload: Payload, uid: int) -> None:
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "payload", payload)
        object.__setattr__(self, "uid", uid)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is frozen")

    __delattr__ = __setattr__

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GroupElement)
            and self.ctx is other.ctx
            and self.uid == other.uid
        )

    def __hash__(self) -> int:
        return self.uid

    def __str__(self) -> str:
        return self.ctx.format_element(self)

    def __repr__(self) -> str:
        return f"<{self.ctx.kind} {self.ctx.format_element(self)}>"


class GroupContext:
    """Base class: interning registry plus the backend hook methods."""

    kind = "abstract"

    def __init__(self) -> None:
        self._uid_by_payload: Dict[Payload, int] = {}
        self._elements: List[GroupElement] = []  # one element per uid
        self._product_memo: Dict[Tuple[int, int], GroupElement] = {}
        self._inverse_memo: Dict[int, GroupElement] = {}
        self._spheres: List[List[GroupElement]] = []  # kept by enumerate_ball

    # -- backend hooks -------------------------------------------------

    def _reduce(self, payload: Payload) -> Payload:
        """Validate a raw payload (its entries are ints) and reduce it."""
        raise NotImplementedError

    def _product_payload(self, a: Payload, b: Payload) -> Payload:
        """The reduced payload of a·b, for reduced payloads a and b."""
        raise NotImplementedError

    def _inv_payload(self, a: Payload) -> Payload:
        """The reduced inverse of a reduced payload."""
        raise NotImplementedError

    def _identity_payload(self) -> Payload:
        raise NotImplementedError

    def _generator_payloads(self) -> List[Payload]:
        raise NotImplementedError

    def _sort_key(self, payload: Payload):
        """The ball order of reduced payloads: word length, then the word."""
        raise NotImplementedError

    def _class_uid(self, payload: Payload, fresh: int) -> int:
        """The uid of an interned class equal to a new reduced payload, else ``fresh``."""
        return fresh

    def _ball_size(self, radius: int, cap: int) -> int:
        """The size of the ball of this radius, or a size past ``cap``."""
        raise NotImplementedError

    # -- interning -----------------------------------------------------

    def _intern(self, payload: Payload) -> GroupElement:
        uid = self._uid_by_payload.get(payload)
        if uid is None:
            uid = self._class_uid(payload, len(self._elements))
            if uid == len(self._elements):
                self._elements.append(GroupElement(self, payload, uid))
            self._uid_by_payload[payload] = uid
        return self._elements[uid]

    def element_by_uid(self, uid: int) -> GroupElement:
        return self._elements[uid]

    # -- public API ----------------------------------------------------

    @property
    def is_finite(self) -> bool:
        return False

    @property
    def order(self) -> Optional[int]:
        return None

    def canonicalize(self, raw: Iterable) -> GroupElement:
        """Canonical element for a raw backend word/payload."""
        return self._intern(self._reduce(tuple(raw)))

    def identity(self) -> GroupElement:
        return self._intern(self._identity_payload())

    def multiply(self, x: GroupElement, y: GroupElement) -> GroupElement:
        self._check(x)
        self._check(y)
        key = (x.uid, y.uid)
        z = self._product_memo.get(key)
        if z is None:
            z = self._intern(self._product_payload(x.payload, y.payload))
            self._product_memo[key] = z
        return z

    def invert(self, x: GroupElement) -> GroupElement:
        self._check(x)
        z = self._inverse_memo.get(x.uid)
        if z is None:
            z = self._intern(self._inv_payload(x.payload))
            self._inverse_memo[x.uid] = z
        return z

    def equals(self, x: GroupElement, y: GroupElement) -> bool:
        self._check(x)
        self._check(y)
        return x.uid == y.uid

    def is_identity(self, x: GroupElement) -> bool:
        return self.equals(x, self.identity())

    def _check(self, x: GroupElement) -> None:
        if not isinstance(x, GroupElement) or x.ctx is not self:
            raise ValueError("group backend mismatch")

    def ball_size(self, radius: int, max_size: int) -> int:
        """The number of elements of word length <= radius, from the closed form;
        the one refusal of a ball past ``max_size`` (never of the identity alone)."""
        if radius < 0:
            raise ValueError("radius must be >= 0")
        cap = max(max_size, 1)
        size = self._ball_size(radius, cap)
        if size > cap:
            raise ResourceLimitError(f"ball exceeds the configured cap of {max_size} elements")
        return size

    def enumerate_ball(self, radius: int, max_size: Optional[int] = None) -> List[GroupElement]:
        """All elements of word length <= radius, sorted by (length, word).

        Breadth-first over the generator set with registry deduplication;
        new classes at each depth are interned in sorted order.  Spheres are
        kept and extended by a larger radius; an empty one ends a finite ball.
        A ball past ``max_size`` is refused by ``ball_size`` before any product.
        """
        if radius < 0:
            raise ValueError("radius must be >= 0")
        if max_size is not None:
            self.ball_size(radius, max_size)
        spheres = self._spheres
        if not spheres:
            spheres.append([self.identity()])
        gens = [self._intern(p) for p in self._generator_payloads()]
        ball = [x for sphere in spheres[: radius + 1] for x in sphere]
        seen = {x.uid for x in ball}  # the whole kept ball whenever it is extended
        while len(spheres) <= radius and spheres[-1]:
            candidates = sorted(
                {self._product_payload(x.payload, g.payload) for x in spheres[-1] for g in gens},
                key=self._sort_key,
            )
            new: List[GroupElement] = []
            for payload in candidates:
                el = self._intern(payload)
                if el.uid not in seen:
                    seen.add(el.uid)
                    new.append(el)
            spheres.append(new)
            ball.extend(new)
        return ball

    def parse_element(self, text: str) -> GroupElement:
        raise NotImplementedError

    def format_element(self, x: GroupElement) -> str:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# finite backend


class FiniteGroup(GroupContext):
    kind = "finite"

    def __init__(self, names: Sequence[str], table: Sequence[Sequence[int]]):
        super().__init__()
        names = tuple(names)
        n = len(names)
        if n == 0:
            raise ValueError("finite group needs at least one element")
        if n > MAX_FINITE_ORDER:
            raise ResourceLimitError(f"group order {n} exceeds the limit {MAX_FINITE_ORDER}")
        if len(set(names)) != n:
            raise ValueError("element names must be distinct")
        if len(table) != n or any(len(row) != n for row in table):
            raise ValueError("multiplication table must be square of matching size")
        if any(type(v) is not int for row in table for v in row):
            raise ValueError("table entries must be integers")
        tbl = tuple(tuple(row) for row in table)
        for row in tbl:
            for v in row:
                if not 0 <= v < n:
                    raise ValueError("table entry out of range (closure fails)")
        ident = None
        for e in range(n):
            if all(tbl[e][j] == j and tbl[j][e] == j for j in range(n)):
                ident = e
                break
        if ident is None:
            raise ValueError("table has no two-sided identity")
        inverses = []
        for i in range(n):
            inv = next(
                (j for j in range(n) if tbl[i][j] == ident and tbl[j][i] == ident),
                None,
            )
            if inv is None:
                raise ValueError(f"element {names[i]!r} has no inverse")
            inverses.append(inv)
        if not _is_associative(tbl, ident):
            raise ValueError("table is not associative")
        self.names = names
        self.table = tbl
        self._ident = ident
        self._inverses = inverses
        self._name_to_idx = {name: i for i, name in enumerate(names)}
        for i in range(n):
            self._intern((i,))  # uid == table index, deterministically

    @property
    def is_finite(self) -> bool:
        return True

    @property
    def order(self) -> int:
        return len(self.names)

    def elements(self) -> List[GroupElement]:
        return [self.element_by_uid(i) for i in range(len(self.names))]

    def _reduce(self, payload):
        (i,) = payload
        if type(i) is not int or not 0 <= i < len(self.names):
            raise ParseError(f"element index {i!r} is not an int in range")
        return (i,)

    def _product_payload(self, a, b):
        return (self.table[a[0]][b[0]],)

    def _inv_payload(self, a):
        return (self._inverses[a[0]],)

    def _identity_payload(self):
        return (self._ident,)

    def _generator_payloads(self):
        others = [i for i in range(len(self.names)) if i != self._ident]
        others.sort(key=lambda i: self.names[i])
        return [(i,) for i in others]

    def _sort_key(self, payload):
        return (payload[0] != self._ident, self.names[payload[0]])

    def _ball_size(self, radius, cap):
        return 1 if radius == 0 else len(self.names)

    def parse_element(self, text: str) -> GroupElement:
        idx = self._name_to_idx.get(text.strip())
        if idx is None:
            raise ParseError(f"unknown element name {text!r}")
        return self.element_by_uid(idx)

    def format_element(self, x: GroupElement) -> str:
        return self.names[x.payload[0]]


def _is_associative(tbl: Tuple[Tuple[int, ...], ...], ident: int) -> bool:
    """Light's test (Clifford-Preston 1961, section 1.2): (xy)g = x(yg) for all x, y and
    each g of a greedy set whose right products ident.g1...gk reach every element.  In a
    group each greedy generator doubles the reach, so a set over log2 n long refutes it."""
    gens, reached = [], {ident}
    for a in range(len(tbl)):
        if a in reached:
            continue
        if len(gens) == len(tbl).bit_length():
            return False
        gens.append(a)
        stack = list(reached)
        while stack:
            row = tbl[stack.pop()]
            new = {row[g] for g in gens} - reached
            reached |= new
            stack.extend(new)
    for g in gens:
        col = [row[g] for row in tbl]  # col[z] = zg, and row[y] = xy
        if any([col[v] for v in row] != [row[v] for v in col] for row in tbl):
            return False
    return True


# ---------------------------------------------------------------------------
# lattice backend (genus 1)

_LATTICE_RE = re.compile(r"\(\s*(-?\d+)\s*,\s*(-?\d+)\s*\)")


class LatticeGroup(GroupContext):
    kind = "lattice"

    def _reduce(self, payload):
        m, n = payload
        if type(m) is not int or type(n) is not int:
            raise ParseError(f"lattice coordinates {payload!r} are not ints")
        return (m, n)

    def _product_payload(self, a, b):
        return (a[0] + b[0], a[1] + b[1])

    def _inv_payload(self, a):
        return (-a[0], -a[1])

    def _identity_payload(self):
        return (0, 0)

    def _generator_payloads(self):
        return [(1, 0), (-1, 0), (0, 1), (0, -1)]

    def _sort_key(self, payload):
        return (abs(payload[0]) + abs(payload[1]), payload)

    def _ball_size(self, radius, cap):
        return 2 * radius * (radius + 1) + 1

    def parse_element(self, text: str) -> GroupElement:
        m = _LATTICE_RE.fullmatch(text.strip())
        if m is None:
            raise ParseError(f"lattice element must look like '(m,n)', got {text!r}")
        return self.canonicalize((int(m.group(1)), int(m.group(2))))

    def format_element(self, x: GroupElement) -> str:
        return f"({x.payload[0]},{x.payload[1]})"


# ---------------------------------------------------------------------------
# surface backend (genus >= 2)


def _free_reduce(word: Sequence[int]) -> Tuple[int, ...]:
    out: List[int] = []
    for letter in word:
        if out and out[-1] == -letter:
            out.pop()
        else:
            out.append(letter)
    return tuple(out)


def _inverse_word(word: Sequence[int]) -> Tuple[int, ...]:
    return tuple(-letter for letter in reversed(word))


def _join(a: Tuple[int, ...], b: Tuple[int, ...]) -> Tuple[Tuple[int, ...], int]:
    """The free reduction of a·b for freely reduced a and b, cancelled at the
    junction only, and the length of the part of a that survives."""
    cut = len(a)
    for letter in b:
        if not cut or a[cut - 1] != -letter:
            break
        cut -= 1
    return a[:cut] + b[len(a) - cut :], cut


_SURFACE_TOKEN = re.compile(r"([ab])(\d+)(\^-1)?")


class SurfaceGroup(GroupContext):
    """Genus-g surface group; letters a_i -> 2i-1, b_i -> 2i, inverses negated."""

    kind = "surface"

    def __init__(self, genus: int):
        if genus < 2:
            raise ValueError("surface genus must be >= 2")
        super().__init__()
        self.genus = genus
        self.relator = tuple(x for b in range(2, 2 * genus + 1, 2) for x in (b - 1, b, 1 - b, -b))
        self._half = 2 * genus  # half the relator length 4g
        self._table = self._build_dehn_table()
        # abelianization -> (uid, reduced inverse of its representative) per class
        self._buckets: Dict[Tuple[int, ...], List[Tuple[int, Payload]]] = {}

    def _build_dehn_table(self) -> Dict[Tuple[int, ...], Tuple[int, ...]]:
        """Map every cyclic subword longer than half the relator (over all
        cyclic conjugates of the relator and its inverse) to the inverse of
        its complement, which is strictly shorter."""
        table: Dict[Tuple[int, ...], Tuple[int, ...]] = {}
        full = len(self.relator)
        for base in (self.relator, _inverse_word(self.relator)):
            for shift in range(full):
                rot = base[shift:] + base[:shift]
                for ln in range(self._half + 1, full + 1):
                    table.setdefault(rot[:ln], _inverse_word(rot[ln:]))
        return table

    def _reduce(self, payload):
        for letter in payload:
            if type(letter) is not int or letter == 0 or abs(letter) > self._half:
                raise ParseError(f"letter {letter!r} is not valid for genus {self.genus}")
        return self._dehn(_free_reduce(payload))

    def _product_payload(self, a, b):
        word, cut = _join(a, b)
        return self._dehn(word, max(0, cut - len(self.relator) + 1))

    def _dehn(self, word: Tuple[int, ...], pos: int = 0) -> Tuple[int, ...]:
        """Dehn-reduce a freely reduced word with no match before ``pos``.  The
        keys are closed under prefixes longer than 2g, so a position without a
        (2g + 1)-letter key has no match, and extending one finds the longest."""
        table, full, half = self._table, len(self.relator), self._half
        while pos < len(word) - half:
            end = pos + half + 1
            if word[pos:end] not in table:
                pos += 1
                continue
            while end < min(pos + full, len(word)) and word[pos : end + 1] in table:
                end += 1
            head, cut = _join(word[:pos], table[word[pos:end]])
            word, cut2 = _join(head, word[end:])
            pos = max(0, min(cut, cut2) - full + 1)
        return word

    def _inv_payload(self, a):
        return _inverse_word(a)

    def _identity_payload(self):
        return ()

    def _generator_payloads(self):
        return [(sign * idx,) for idx in range(1, self._half + 1) for sign in (1, -1)]

    def _sort_key(self, payload):
        return (len(payload), tuple(abs(letter) * 2 + (letter < 0) for letter in payload))

    def _abelianized(self, payload) -> Tuple[int, ...]:
        counts = [0] * (2 * self.genus)
        for letter in payload:
            counts[abs(letter) - 1] += 1 if letter > 0 else -1
        return tuple(counts)

    def _class_uid(self, payload, fresh):
        bucket = self._buckets.setdefault(self._abelianized(payload), [])
        for uid, inverse in bucket:
            if not self._product_payload(payload, inverse):
                return uid
        bucket.append((fresh, _inverse_word(payload)))
        return fresh

    def _ball_size(self, radius, cap):
        """Partial sums of Cannon's spherical growth series on the standard
        generators, N(t)/D(t) with N = 1 + 2t + ... + 2t^{2g-1} + t^{2g} and
        D = 1 - (4g-2)(t + ... + t^{2g-1}) + t^{2g}, stopped once past cap."""
        half, spheres, total = self._half, [], 0
        for k in range(radius + 1):
            size = 1 if k in (0, half) else 2 if k < half else 0  # N's coefficient
            size += (2 * half - 2) * sum(spheres[max(0, k - half + 1) :])
            if k >= half:
                size -= spheres[k - half]
            spheres.append(size)
            total += size
            if total > cap:
                break
        return total

    def is_trivial_word(self, raw: Iterable[int]) -> bool:
        """Word problem on raw letter sequences, without interning."""
        return not self._reduce(tuple(raw))

    def parse_element(self, text: str) -> GroupElement:
        text = text.strip()
        if text in ("", "e", "1"):
            return self.identity()
        letters: List[int] = []
        for token in text.split():
            m = _SURFACE_TOKEN.fullmatch(token)
            if m is None:
                raise ParseError(f"unknown letter {token!r}")
            idx = int(m.group(2))
            if not 1 <= idx <= self.genus:
                raise ParseError(f"letter index {idx} exceeds genus {self.genus} in {token!r}")
            letter = 2 * idx - 1 if m.group(1) == "a" else 2 * idx
            letters.append(-letter if m.group(3) else letter)
        return self.canonicalize(letters)

    def format_element(self, x: GroupElement) -> str:
        if not x.payload:
            return "e"
        tokens = []
        for letter in x.payload:
            idx = (abs(letter) + 1) // 2
            base = "a" if abs(letter) % 2 == 1 else "b"
            tokens.append(f"{base}{idx}" + ("^-1" if letter < 0 else ""))
        return " ".join(tokens)


# ---------------------------------------------------------------------------
# construction helpers


def cyclic_group(m: int) -> FiniteGroup:
    names = ["e"] + [f"g{i}" if i > 1 else "g" for i in range(1, m)]
    table = [[(i + j) % m for j in range(m)] for i in range(m)]
    return FiniteGroup(names, table)


def group_from_spec(spec: dict) -> GroupContext:
    """Build a context from the JSON group-spec object."""
    if not isinstance(spec, dict):
        raise ParseError("group spec must be a JSON object")
    kind = spec.get("kind")
    if kind == "finite":
        names, table = spec.get("elements"), spec.get("table")
        if not isinstance(names, list) or not all(isinstance(x, str) for x in names):
            raise ParseError('finite group spec needs "elements": a list of names')
        if not isinstance(table, list) or not all(isinstance(row, list) for row in table):
            raise ParseError('finite group spec needs "table": a list of rows')
        return FiniteGroup(names, table)
    if kind == "lattice":
        return LatticeGroup()
    if kind == "surface":
        genus = spec.get("genus")
        if type(genus) is not int:
            raise ParseError('surface group spec needs an integer "genus"')
        return SurfaceGroup(genus)
    raise ParseError(f"unknown group kind {kind!r}")


_BUILTINS = {
    "trivial": lambda: cyclic_group(1),
    "C2": lambda: cyclic_group(2),
    "C3": lambda: cyclic_group(3),
    "lattice": lambda: LatticeGroup(),
}


def load_group(name_or_path: str) -> GroupContext:
    """Resolve a builtin name (trivial | C2 | C3 | lattice | surface:g) or a
    JSON group-spec file path."""
    builder = _BUILTINS.get(name_or_path)
    if builder is not None:
        return builder()
    if name_or_path.startswith("surface:"):
        try:
            genus = int(name_or_path.split(":", 1)[1])
        except ValueError as exc:
            raise ParseError(f"bad surface genus in {name_or_path!r}") from exc
        return SurfaceGroup(genus)
    try:
        with open(name_or_path, "r", encoding="utf-8") as fh:
            spec = json.load(fh)
    except OSError as exc:
        raise ParseError(f"not a builtin group or readable spec file: {name_or_path!r}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON in group spec {name_or_path!r}: {exc}") from exc
    return group_from_spec(spec)


# ---------------------------------------------------------------------------
# strand indices and letters, shared by every algebra layer


def strand_letter_count(group: GroupContext, n: int) -> int:
    """C(n, 2)·|G|, the length of ``strand_letters(group, n)``, without
    building the letters, so that an oracle checks its cap first."""
    if not group.is_finite:
        raise ValueError("brute force and enumeration need a finite group")
    return n * (n - 1) // 2 * group.order


def strand_letters(group: GroupContext, n: int) -> List[Tuple[int, int, int]]:
    """The sorted letters (i, j, uid), n >= i > j >= 1, over a finite
    decoration group: the alphabet of the enumerators and rank oracles."""
    strand_letter_count(group, n)  # refuses an infinite group
    return sorted(
        (i, j, el.uid) for i in range(2, n + 1) for j in range(1, i) for el in group.elements()
    )


def decoration_order(group: GroupContext, group_order: Optional[int], what: str) -> int:
    """``group_order`` if given, else the order of the finite ``group``."""
    if group_order is not None:
        return group_order
    if not group.is_finite:
        raise ValueError(
            f"{what} needs a finite group; pass an explicit truncation order "
            "for infinite backends"
        )
    return group.order


def check_int_strands(*indices) -> None:
    """Strand indices are ints; bools and floats are refused."""
    for k in indices:
        if type(k) is not int:
            raise ValueError("strand indices must be ints")


def strand_pair(
    group: GroupContext, n: int, i: int, j: int, sigma: GroupElement
) -> Tuple[int, int, GroupElement]:
    """The generator index (i, j, sigma) on n strands with i > j; a pair
    given with i < j is mirrored, sigma -> sigma^-1."""
    check_int_strands(i, j)
    if not (1 <= i <= n and 1 <= j <= n):
        raise ValueError(f"strand index out of range for n={n}")
    if i == j:
        raise ValueError("generator needs two distinct strands")
    group._check(sigma)
    if i < j:
        return j, i, group.invert(sigma)
    return i, j, sigma


def strand_permutation(perm: Iterable[int], n: int) -> Tuple[int, ...]:
    """A permutation of 1..n in image form (perm[i-1] = gamma(i)), as a tuple."""
    perm = tuple(perm)
    if not all(type(k) is int for k in perm):
        raise ValueError("permutation entries must be ints")
    if sorted(perm) != list(range(1, n + 1)):
        raise ValueError("not a bijection of 1..n")
    return perm
