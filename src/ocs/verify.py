"""Named verification suites over every module: relation vanishing, Lie
and Poisson axioms, oracle agreements, group laws, determinism-friendly
reporting.

Each suite records its cases in one ``_Cases`` recorder and returns
``(cases, failures)``; ``run_suite`` reports it as ``{"suite": name,
"cases": int, "failures": [{"instance", "expected", "got"}, ...]}``.  All
sampling is driven by ``random.Random(f"{seed}:{suite}")`` so reports are
byte-identical for a fixed seed.  ``run_all`` chains every suite with
instance labels prefixed by the suite name.
"""

from __future__ import annotations

import itertools
import random
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from . import assoc as assoc_mod
from . import cohomology as cohom_mod
from . import lie as lie_mod
from . import poisson as poisson_mod
from .errors import ResourceLimitError
from .groups import GroupContext, GroupElement, SurfaceGroup, cyclic_group, load_group


class VerifyConfig:
    """The options of a verify run; compared field by field, not hashable."""

    __slots__ = ("group", "n", "q", "k", "seed", "radius", "samples", "max_basis")
    group: str
    n: int
    q: int
    k: int
    seed: int
    radius: int
    samples: int
    max_basis: int

    def __init__(
        self,
        group: str = "C2",
        n: int = 3,
        q: int = 1,
        k: int = 2,
        seed: int = 0,
        radius: int = 1,
        samples: int = 40,
        max_basis: int = 200_000,
    ):
        self.group, self.n, self.q, self.k = group, n, q, k
        self.seed, self.radius, self.samples, self.max_basis = seed, radius, samples, max_basis

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __repr__(self) -> str:
        pairs = (f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"VerifyConfig({', '.join(pairs)})"

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._fields() == other._fields()

    __hash__ = None

    def build_group(self) -> GroupContext:
        return load_group(self.group)


def _rng(cfg: VerifyConfig, suite: str) -> random.Random:
    return random.Random(f"{cfg.seed}:{suite}")


def _decorations(
    cfg: VerifyConfig, group: GroupContext, plan: Optional[Callable[..., Iterable]] = None
) -> List[GroupElement]:
    """The decorations of a suite: every element of a finite group, else the
    ball of ``cfg.radius``.  Each (count, what) that the suite's ``plan`` yields
    from the exact number of decorations is refused past ``max_basis`` before
    any decoration is built, so a lazy plan stops at its first refused count."""
    size = group.order if group.is_finite else group.ball_size(cfg.radius, cfg.max_basis)
    for count, what in plan(cfg, group, size) if plan else ():
        _refuse_over(cfg.max_basis, count, what)
    return group.elements() if group.is_finite else group.enumerate_ball(cfg.radius)


def _refuse_over(cap: int, count: int, what: str) -> None:
    """Refuse a suite whose ``count`` of ``what`` exceeds ``cap``, naming --n.
    A count of 19 digits or more is shown as a power of ten below it, so that
    the message stays short whatever --n is."""
    if count > cap:
        if count < 10**18:
            shown = str(count)
        else:  # 0.30102 < log10(2), so 10^power < count
            shown = f"more than 10^{(count.bit_length() - 1) * 30102 // 100000}"
        raise ResourceLimitError(f"{shown} {what} exceed the cap {cap}; lower --n")


def _relation_plan(cfg: VerifyConfig, group: GroupContext, size: int, images: int = 1):
    """C(n,2)·C(n-2,2)/2 disjoint and 2·C(n,3) triangle relation instances per
    pair of decorations, each checked ``images`` times."""
    n = cfg.n
    instances = n * (n - 1) * (n - 2) * (n - 3) // 8 + n * (n - 1) * (n - 2) // 3
    yield instances * size**2 * images, "relation checks"


def _symmetric_action_plan(cfg: VerifyConfig, group: GroupContext, size: int):
    """The relation checks under each of the min(n!, 24) permutations applied."""
    return _relation_plan(cfg, group, size, (1, 1, 2, 6, 24)[min(cfg.n, 4)])


def _cohom_plan(cfg: VerifyConfig, group: GroupContext, size: int):
    """Over a finite group, the prod_{i=2..n}(1 + (i-1)|G|) admissible monomials
    that the enumeration checks walk, strand by strand; then the
    C(n,2)·size² square-zero cups."""
    n = cfg.n
    if group.is_finite:
        monomials = 1
        for i in range(2, n + 1):
            monomials *= 1 + (i - 1) * size
            yield monomials, f"admissible monomials on the first {i} strands"
    yield n * (n - 1) // 2 * size**2, "square-zero cups"


def _assoc_plan(cfg: VerifyConfig, group: GroupContext, size: int):
    """The n(n-1)(n-2)·size² relation products, plus over a finite group the
    canonical words of length 0..2 that the enumeration checks walk."""
    n = cfg.n
    count = n * (n - 1) * (n - 2) * size**2
    if group.is_finite and count <= cfg.max_basis:
        count += sum(assoc_mod.hilbert_coefficients(assoc_mod.AssocContext(group, n), 2))
    yield count, "relation products and canonical words"


def _regrading_plan(cfg: VerifyConfig, group: GroupContext, size: int):
    """Over a finite group, the monomials of degree 1..3·generator_degree that
    the enumeration checks walk in each grading.  Each grading has the
    C(n,2)·|G| generators among them, which come first, so that a large n is
    refused before any series is summed."""
    if not group.is_finite:
        return
    n, grading = cfg.n, poisson_mod.PoissonGrading(cfg.k, cfg.q)
    yield n * (n - 1) * size, "generators in the two gradings"
    monomials = 0
    for graded in (grading, grading.regraded()):
        pctx = poisson_mod.PoissonContext(group, n, graded)
        monomials += sum(poisson_mod.basis_dimensions(pctx, 3 * graded.generator_degree)[1:])
    yield monomials, "monomials in the two gradings"


class _Cases:
    """One suite's case count and failure list.  Each check counts one case;
    ``instance`` is a ``str.format`` template, formatted with ``args`` only
    on failure, together with ``str(expected)`` and ``str(got)``."""

    __slots__ = ("count", "failures")

    def __init__(self):
        self.count = 0
        self.failures: List[dict] = []

    def check(self, ok: bool, expected, got, instance: str, *args) -> None:
        self.count += 1
        if not ok:
            self.failures.append(
                {"instance": instance.format(*args), "expected": str(expected), "got": str(got)}
            )

    def zero(self, value, instance: str, *args) -> None:
        """The case ``value == 0``; counted inline, as it is the common one."""
        self.count += 1
        if not value.is_zero():
            self.failures.append(
                {"instance": instance.format(*args), "expected": "0", "got": str(value)}
            )

    def result(self) -> Tuple[int, List[dict]]:
        return self.count, self.failures


def _raises(exc, fn: Callable[[], object]) -> bool:
    try:
        fn()
    except exc:
        return True
    return False


# ---------------------------------------------------------------------------
# shared random-object helpers (also used by the test suites)


def random_expression_tree(
    rng: random.Random, n: int, decorations: Sequence[GroupElement], leaves: int
):
    """A random bracket-expression tree over generator leaves, as nested
    tuples: ("gen", i, j, sigma) | ("bracket", L, R)."""
    if leaves <= 1:
        i = rng.randint(2, n)
        j = rng.randint(1, i - 1)
        return ("gen", i, j, rng.choice(decorations))
    split = rng.randint(1, leaves - 1)
    return (
        "bracket",
        random_expression_tree(rng, n, decorations, split),
        random_expression_tree(rng, n, decorations, leaves - split),
    )


def eval_expression_tree(ctx: lie_mod.LieContext, tree) -> lie_mod.LieElement:
    if tree[0] == "gen":
        return ctx.generator(tree[1], tree[2], tree[3])
    return ctx.bracket(
        eval_expression_tree(ctx, tree[1]), eval_expression_tree(ctx, tree[2])
    )


def random_lie_element(
    rng: random.Random,
    ctx: lie_mod.LieContext,
    decorations: Sequence[GroupElement],
    max_leaves: int = 3,
    terms: int = 2,
) -> lie_mod.LieElement:
    out = ctx.zero()
    for _ in range(terms):
        tree = random_expression_tree(rng, ctx.n, decorations, rng.randint(1, max_leaves))
        coef = rng.randint(-3, 3)
        if coef:
            out = out + eval_expression_tree(ctx, tree).scale(coef)
    return out


def monomials_by_degree(
    pctx: poisson_mod.PoissonContext, max_degree: int
) -> Dict[int, List[poisson_mod.Monomial]]:
    out: Dict[int, List[poisson_mod.Monomial]] = {}
    for d in range(1, max_degree + 1):
        monos = poisson_mod.enumerate_monomials(pctx, d)
        if monos:
            out[d] = monos
    return out


def random_homogeneous_poisson(
    rng: random.Random,
    pctx: poisson_mod.PoissonContext,
    pool: Dict[int, List[poisson_mod.Monomial]],
    terms: int = 2,
) -> Tuple[poisson_mod.PoissonElement, int]:
    """A random homogeneous element and its (nominal) degree."""
    degree = rng.choice(sorted(pool))
    out = pctx.zero()
    for _ in range(terms):
        mono = rng.choice(pool[degree])
        coef = rng.randint(-3, 3)
        if coef:
            out = out + poisson_mod.PoissonElement(pctx, {mono: coef})
    return out, degree


# ---------------------------------------------------------------------------
# suites


def suite_group_laws(cfg: VerifyConfig) -> Tuple[int, List[dict]]:
    rec = _Cases()
    rng = _rng(cfg, "group-laws")
    group = cfg.build_group()
    pool = _decorations(cfg, group)
    ident = group.identity()

    sample = pool if len(pool) <= 6 else rng.sample(pool, 6)
    for x in sample:
        for y in sample:
            for z in sample:
                lhs = group.multiply(group.multiply(x, y), z)
                rhs = group.multiply(x, group.multiply(y, z))
                rec.check(group.equals(lhs, rhs), lhs, rhs, "assoc[{};{};{}]", x, y, z)
    for x in sample:
        right, left = group.multiply(x, ident), group.multiply(ident, x)
        rec.check(group.equals(right, x), x, right, "identity-right[{}]", x)
        rec.check(group.equals(left, x), x, left, "identity-left[{}]", x)
        inv = group.multiply(x, group.invert(x))
        rec.check(group.is_identity(inv), "e", inv, "inverse[{}]", x)
    for x in sample:
        again = group.canonicalize(x.payload)
        rec.check(group.equals(again, x), x, again, "canonical-idempotent[{}]", x)
    sizes = [len(group.enumerate_ball(r)) for r in range(3)]
    ok = sizes[0] == 1 and sizes[0] <= sizes[1] <= sizes[2]
    rec.check(ok, "1 <= |B1| <= |B2|", sizes, "ball-monotone")

    # fixed genus-2 word-problem checks, independent of the configured group
    surf = SurfaceGroup(2)
    trivial = surf.is_trivial_word(surf.relator)
    rec.check(trivial, "e", surf.canonicalize(surf.relator), "surface-relator")
    for trial in range(5):
        word: tuple = ()
        for _ in range(rng.randint(1, 4)):
            conj = tuple(
                rng.choice([1, -1, 2, -2, 3, -3, 4, -4])
                for _ in range(rng.randint(0, 3))
            )
            base = surf.relator if rng.random() < 0.5 else tuple(
                -letter for letter in reversed(surf.relator)
            )
            word = word + conj + base + tuple(-letter for letter in reversed(conj))
        rec.check(surf.is_trivial_word(word), "e", word, "surface-conjugate-product[{}]", trial)
    for trial in range(10):
        length = rng.randint(1, 4)
        word = ()
        while len(word) < length:
            letter = rng.choice([1, -1, 2, -2, 3, -3, 4, -4])
            if word and word[-1] == -letter:
                continue
            word = word + (letter,)
        rec.check(
            not surf.is_trivial_word(word), "nontrivial", "e", "surface-short-nontrivial[{}]", trial
        )
    ball_sizes = [len(surf.enumerate_ball(r)) for r in range(3)]
    rec.check(ball_sizes == [1, 9, 65], [1, 9, 65], ball_sizes, "surface-ball-sizes")
    return rec.result()


def suite_lie_relations(cfg: VerifyConfig) -> Tuple[int, List[dict]]:
    rec = _Cases()
    group = cfg.build_group()
    ctx = lie_mod.LieContext(group, cfg.n, cfg.q)
    decorations = _decorations(cfg, group, _relation_plan)
    for label, terms in lie_mod.pure_braid_relations(cfg.n, decorations, group):
        rec.zero(lie_mod.evaluate_relation(ctx, terms), "{}", label)
    return rec.result()


def suite_lie_axioms(cfg: VerifyConfig) -> Tuple[int, List[dict]]:
    rec = _Cases()
    rng = _rng(cfg, "lie-axioms")
    group = cfg.build_group()
    ctx = lie_mod.LieContext(group, cfg.n, cfg.q)
    decorations = _decorations(cfg, group)
    for trial in range(min(cfg.samples, 30)):
        x = random_lie_element(rng, ctx, decorations)
        y = random_lie_element(rng, ctx, decorations)
        z = random_lie_element(rng, ctx, decorations, max_leaves=1)
        rec.zero(ctx.bracket(x, x), "alternating[{}]", trial)
        rec.zero(ctx.bracket(x, y) + ctx.bracket(y, x), "antisymmetry[{}]", trial)
        jac = (
            ctx.bracket(x, ctx.bracket(y, z))
            + ctx.bracket(y, ctx.bracket(z, x))
            + ctx.bracket(z, ctx.bracket(x, y))
        )
        rec.zero(jac, "jacobi[{}]", trial)
        lin = ctx.bracket(x + y.scale(2), z) - ctx.bracket(x, z) - ctx.bracket(y, z).scale(2)
        rec.zero(lin, "bilinear[{}]", trial)
    return rec.result()


_DIMENSION_MODELS = [
    ("C2-n3", lambda: cyclic_group(2), 3, [6, 7, 22]),
    ("trivial-n3", lambda: cyclic_group(1), 3, [3, 1, 2]),
    ("trivial-n2", lambda: cyclic_group(1), 2, [1, 0, 0]),
]


def suite_lie_dims(cfg: VerifyConfig) -> Tuple[int, List[dict]]:
    rec = _Cases()
    for label, make, n, expected in _DIMENSION_MODELS:
        group = make()
        ctx = lie_mod.LieContext(group, n)
        for ell in (1, 2, 3):
            counted = lie_mod.graded_dimension(ctx, ell)
            enumerated = lie_mod.graded_dimension_by_enumeration(ctx, ell)
            brute = lie_mod.bruteforce_dimension(ctx, ell, max_basis=cfg.max_basis)
            want = expected[ell - 1]
            ok = counted == enumerated == brute == want
            rec.check(ok, want, (counted, enumerated, brute), "dims[{};len={}]", label, ell)
    return rec.result()


def suite_symmetric_action(cfg: VerifyConfig) -> Tuple[int, List[dict]]:
    rec = _Cases()
    rng = _rng(cfg, "symmetric-action")
    group = cfg.build_group()
    ctx = lie_mod.LieContext(group, cfg.n, cfg.q)
    actx = assoc_mod.AssocContext(group, cfg.n)
    decorations = _decorations(cfg, group, _symmetric_action_plan)
    perms = list(itertools.islice(itertools.permutations(range(1, cfg.n + 1)), 24))
    trivial_tuple = tuple(group.identity() for _ in range(cfg.n))

    # each generator index (i, j, sigma) gets a position, in the order first
    # seen, so a permutation's images are a list read by position
    position: Dict[tuple, int] = {}

    def at(idx: tuple) -> int:
        return position.setdefault(idx, len(position))

    relations = [
        (label, [(coef, at(a), at(b)) for coef, a, b in terms])
        for label, terms in lie_mod.pure_braid_relations(cfg.n, decorations, group)
    ]
    generators = [ctx.generator(*idx) for idx in position]
    for perm in perms:
        images = [ctx.act_symmetric(perm, g) for g in generators]
        for label, terms in relations:
            mapped = ctx.bracket_sum([(coef, images[a], images[b]) for coef, a, b in terms])
            rec.zero(mapped, "relation-image[{};{}]", perm, label)
    for trial in range(min(cfg.samples, 12)):
        perm = rng.choice(perms)
        other = rng.choice(perms)
        x = random_lie_element(rng, ctx, decorations)
        y = random_lie_element(rng, ctx, decorations)
        hom = ctx.act_symmetric(perm, ctx.bracket(x, y)) - ctx.bracket(
            ctx.act_symmetric(perm, x), ctx.act_symmetric(perm, y)
        )
        rec.zero(hom, "lie-homomorphism[{}]", trial)
        composed = tuple(perm[other[i - 1] - 1] for i in range(1, cfg.n + 1))
        two_step = ctx.act_symmetric(perm, ctx.act_symmetric(other, x))
        one_step = ctx.act_symmetric(composed, x)
        rec.zero(two_step - one_step, "composition[{}]", trial)
        ex = actx.embed_lie(x)
        inter = actx.embed_lie(ctx.act_symmetric(perm, x)) - actx.act_tilde(
            perm, trivial_tuple, ex
        )
        rec.zero(inter, "embed-intertwine[{}]", trial)
    return rec.result()


def suite_assoc(cfg: VerifyConfig) -> Tuple[int, List[dict]]:
    rec = _Cases()
    rng = _rng(cfg, "assoc")
    group = cfg.build_group()
    actx = assoc_mod.AssocContext(group, cfg.n)
    lctx = lie_mod.LieContext(group, cfg.n, cfg.q)
    decorations = _decorations(cfg, group, _assoc_plan)

    def random_word(max_len=3):
        letters = []
        for _ in range(rng.randint(1, max_len)):
            i = rng.randint(2, cfg.n)
            j = rng.randint(1, i - 1)
            letters.append(actx.letter(i, j, rng.choice(decorations)))
        return actx.word(letters)

    for trial in range(min(cfg.samples, 25)):
        a, b, c = random_word(), random_word(), random_word()
        rec.zero((a * b) * c - a * (b * c), "associativity[{}]", trial)
        degrees = (a * b).degrees()
        want = {da + db for da in a.degrees() for db in b.degrees()}
        rec.check(set(degrees) <= want, sorted(want), degrees, "degree-additive[{}]", trial)
    # decorated pure-braid relations hold as commutators
    strands = range(1, cfg.n + 1)
    pairs = itertools.permutations(strands, 2)
    gens = {(i, j, g): actx.generator(i, j, g) for i, j in pairs for g in decorations}
    for i, j, s in itertools.permutations(strands, 3):
        for gamma in decorations:
            for delta in decorations:
                x = gens[i, j, gamma]
                # gamma*delta can leave the ball of decorations, so z is built here
                yz = gens[j, s, delta] + actx.generator(i, s, group.multiply(gamma, delta))
                value = actx.product_sum(((1, x, yz), (-1, yz, x)))
                rec.zero(value, "assoc-relation[{},{},{};{};{}]", i, j, s, gamma, delta)
    for trial in range(min(cfg.samples, 10)):
        x = random_lie_element(rng, lctx, decorations)
        y = random_lie_element(rng, lctx, decorations)
        ex, ey = actx.embed_lie(x), actx.embed_lie(y)
        diff = actx.embed_lie(lctx.bracket(x, y)) - (ex * ey - ey * ex)
        rec.zero(diff, "embed-commutator[{}]", trial)
    for trial in range(min(cfg.samples, 10)):
        a, b = random_word(), random_word()
        mu, nu = rng.choice(decorations), rng.choice(decorations)
        slot_a, slot_b = rng.randint(1, cfg.n), rng.randint(1, cfg.n)
        auto = actx.conjugate(mu, slot_a, a * b) - actx.conjugate(
            mu, slot_a, a
        ) * actx.conjugate(mu, slot_a, b)
        rec.zero(auto, "conjugation-automorphism[{}]", trial)
        ab = actx.conjugate(mu, slot_a, actx.conjugate(nu, slot_b, a))
        ba = actx.conjugate(nu, slot_b, actx.conjugate(mu, slot_a, a))
        diff = ab - ba
        ok = slot_a == slot_b or diff.is_zero()
        rec.check(ok, "0", diff, "conjugation-slots-commute[{}]", trial)
    if group.is_finite:
        series = assoc_mod.hilbert_coefficients(actx, 3)
        for deg in range(3):
            count = assoc_mod.count_canonical_words(actx, deg)
            rec.check(count == series[deg], series[deg], count, "hilbert-enumeration[deg={}]", deg)
        if group.order * cfg.n <= 8:
            brute = assoc_mod.bruteforce_quotient_dimension(actx, 2, max_basis=cfg.max_basis)
            rec.check(brute == series[2], series[2], brute, "hilbert-bruteforce[deg=2]")
    return rec.result()


def suite_cohom(cfg: VerifyConfig) -> Tuple[int, List[dict]]:
    rec = _Cases()
    rng = _rng(cfg, "cohom")
    group = cfg.build_group()
    cctx = cohom_mod.CohomContext(group, cfg.n)
    decorations = _decorations(cfg, group, _cohom_plan)

    def random_class():
        i = rng.randint(2, cfg.n)
        j = rng.randint(1, i - 1)
        return cctx.generator(i, j, rng.choice(decorations))

    pairs = [(i, j) for i in range(2, cfg.n + 1) for j in range(1, i)]
    gens = {(i, j, g): cctx.generator(i, j, g) for i, j in pairs for g in decorations}
    for mu in decorations:
        for nu in decorations:
            for i, j in pairs:
                sq = cctx.cup(gens[i, j, mu], gens[i, j, nu])
                rec.zero(sq, "square-zero[{},{};{};{}]", i, j, mu, nu)
    for trial in range(min(cfg.samples, 15)):
        a, b = random_class(), random_class()
        rec.zero(cctx.cup(a, b) + cctx.cup(b, a), "anticommute[{}]", trial)
        prod = cctx.cup(a, cctx.cup(b, random_class()))
        bad = next(
            (m for m in prod.terms if [f[0] for f in m] != sorted({f[0] for f in m})), None
        )
        rec.check(bad is None, "ascending distinct tops", bad, "admissible[{}]", trial)
    if group.is_finite:
        poly = cohom_mod.poincare_polynomial(cctx)
        for deg in range(len(poly)):
            count = cohom_mod.count_admissible(cctx, deg)
            rec.check(count == poly[deg], poly[deg], count, "poincare-enumeration[deg={}]", deg)
        if group.order * cfg.n <= 8:
            # at most 28^2 words; the plan has applied --max-basis to this suite
            brute = cohom_mod.bruteforce_cohom_dimension(cctx, 2)
            want = poly[2] if len(poly) > 2 else 0
            rec.check(brute == want, want, brute, "poincare-bruteforce[deg=2]")
    return rec.result()


def suite_poisson_axioms(cfg: VerifyConfig) -> Tuple[int, List[dict]]:
    rec = _Cases()
    rng = _rng(cfg, "poisson-axioms")
    group = cfg.build_group()
    grading = poisson_mod.PoissonGrading(cfg.k, cfg.q)
    pctx = poisson_mod.PoissonContext(group, cfg.n, grading)
    decorations = _decorations(cfg, group, _relation_plan)
    shift = grading.shift

    pool = {}
    if group.is_finite and cfg.samples > 0:
        pool = monomials_by_degree(pctx, grading.primitive_degree(2) + grading.generator_degree)
    if not pool:
        gens = [
            ((i, ((j, sigma.uid),)),)
            for i in range(2, cfg.n + 1)
            for j in range(1, i)
            for sigma in decorations
        ]
        pool = {grading.generator_degree: gens}

    for label, terms in lie_mod.pure_braid_relations(cfg.n, decorations, group):
        rec.zero(lie_mod.evaluate_relation(pctx, terms), "poisson-relation[{}]", label)

    for trial in range(cfg.samples):
        a, da = random_homogeneous_poisson(rng, pctx, pool)
        b, db = random_homogeneous_poisson(rng, pctx, pool)
        c, dc = random_homogeneous_poisson(rng, pctx, pool)
        # antisymmetry with the printed exponent
        exponent = da * db + 1 + shift * (da + db + 1)
        anti = pctx.bracket(a, b) - pctx.bracket(b, a).scale((-1) ** exponent)
        rec.zero(anti, "antisymmetry[{}]", trial)
        # printed exponent agrees with the desuspended convention
        ok = (exponent - (1 + (da + shift) * (db + shift))) % 2 == 0
        rule = "printed exponent == 1+(|a|+k-1)(|b|+k-1) mod 2"
        rec.check(ok, rule, exponent, "sign-parity[{}]", trial)
        # Jacobi with the printed signs
        alpha = (-1) ** ((da + shift) * (dc + shift))
        beta = (-1) ** ((db + shift) * (da + shift))
        gamma = (-1) ** ((dc + shift) * (db + shift))
        jac = (
            pctx.bracket(a, pctx.bracket(b, c)).scale(alpha)
            + pctx.bracket(b, pctx.bracket(c, a)).scale(beta)
            + pctx.bracket(c, pctx.bracket(a, b)).scale(gamma)
        )
        rec.zero(jac, "jacobi[{}]", trial)
        # product formula, verbatim
        lhs = pctx.bracket(pctx.multiply(a, b), c)
        rhs = pctx.multiply(a, pctx.bracket(b, c)) + pctx.multiply(
            b, pctx.bracket(a, c)
        ).scale((-1) ** (da * db))
        rec.zero(lhs - rhs, "product-formula[{}]", trial)
        # degree of the operation
        br = pctx.bracket(a, b)
        degree = br.degree()
        want = shift + da + db
        rec.check(br.is_zero() or degree == want, want, degree, "degree[{}]", trial)
    return rec.result()


def suite_suspension(cfg: VerifyConfig) -> Tuple[int, List[dict]]:
    rec = _Cases()
    rng = _rng(cfg, "suspension")
    group = cfg.build_group()
    if cfg.k >= 3:
        grading = poisson_mod.PoissonGrading(cfg.k, cfg.q)
    else:
        grading = poisson_mod.PoissonGrading(3, 2)
    pctx = poisson_mod.PoissonContext(group, cfg.n, grading)
    decorations = _decorations(cfg, group)
    # each context has its own Lie memo, so the suspended side computes its
    # primitive brackets afresh instead of reading the memo pctx fills
    target = poisson_mod.PoissonContext(group, cfg.n, grading.suspended())
    for trial in range(min(cfg.samples, 50)):
        i = rng.randint(2, cfg.n)
        j = rng.randint(1, i - 1)
        s = rng.randint(2, cfg.n)
        t = rng.randint(1, s - 1)
        sigma, tau = rng.choice(decorations), rng.choice(decorations)
        x, y = pctx.generator(i, j, sigma), pctx.generator(s, t, tau)
        lhs = poisson_mod.suspension(pctx.bracket(x, y))
        rhs = target.bracket(poisson_mod.suspension(x), poisson_mod.suspension(y))
        rec.check(lhs.terms == rhs.terms, lhs, rhs, "suspension-naturality[{}]", trial)
    a = pctx.generator(2, 1, decorations[0])
    product = pctx.multiply(a, a)  # primitives are even here, so a*a != 0

    def suspend_k2():
        low = poisson_mod.PoissonContext(
            group, cfg.n, poisson_mod.PoissonGrading(2, grading.q)
        )
        poisson_mod.suspension(low.generator(2, 1, decorations[0]))

    rejected = _raises(ValueError, lambda: poisson_mod.suspension(product))
    rec.check(rejected, "ValueError", "accepted", "suspension-rejects-products")
    rec.check(_raises(ValueError, suspend_k2), "ValueError", "accepted", "suspension-rejects-k2")
    return rec.result()


def suite_regrading(cfg: VerifyConfig) -> Tuple[int, List[dict]]:
    rec = _Cases()
    rng = _rng(cfg, "regrading")
    group = cfg.build_group()
    decorations = _decorations(cfg, group, _regrading_plan)
    grading = poisson_mod.PoissonGrading(cfg.k, cfg.q)
    regraded = grading.regraded()
    # each context has its own memo, so q=3 computes afresh what q=1 computes
    ctx1 = lie_mod.LieContext(group, cfg.n, q=1)
    ctx3 = lie_mod.LieContext(group, cfg.n, q=3)
    for trial in range(min(cfg.samples, 30)):
        tree = random_expression_tree(rng, cfg.n, decorations, rng.randint(1, 3))
        x1 = eval_expression_tree(ctx1, tree)
        x3 = eval_expression_tree(ctx3, tree)
        rec.check(x1.terms == x3.terms, x1.terms, x3.terms, "q-invariance[{}]", trial)
        scaled, degrees = [3 * d for d in x1.degrees()], x3.degrees()
        rec.check(scaled == degrees, scaled, degrees, "degree-scaling[{}]", trial)
    before, after = grading.generator_degree, regraded.generator_degree
    rec.check(before == after, before, after, "regraded-generator-degree")
    if group.is_finite:
        pctx = poisson_mod.PoissonContext(group, cfg.n, grading)
        rctx = poisson_mod.PoissonContext(group, cfg.n, regraded)
        for d in range(1, 3 * grading.generator_degree + 1):
            ours, theirs = (
                sum(all(len(w) == 1 for _, w in m) for m in poisson_mod.enumerate_monomials(c, d))
                for c in (pctx, rctx)
            )
            rec.check(ours == theirs, ours, theirs, "regraded-generator-subalgebra[deg={}]", d)
    return rec.result()


SUITES: Dict[str, Callable[[VerifyConfig], Tuple[int, List[dict]]]] = {
    "group-laws": suite_group_laws,
    "lie-relations": suite_lie_relations,
    "lie-axioms": suite_lie_axioms,
    "lie-dims": suite_lie_dims,
    "symmetric-action": suite_symmetric_action,
    "assoc": suite_assoc,
    "cohom": suite_cohom,
    "poisson-axioms": suite_poisson_axioms,
    "suspension": suite_suspension,
    "regrading": suite_regrading,
}


def run_suite(name: str, cfg: VerifyConfig) -> dict:
    if name == "all":
        return run_all(cfg)
    fn = SUITES.get(name)
    if fn is None:
        raise ValueError(
            f"unknown suite {name!r}; choose from {', '.join(list(SUITES) + ['all'])}"
        )
    cases, failures = fn(cfg)
    return {"suite": name, "cases": cases, "failures": failures}


def run_all(cfg: VerifyConfig) -> dict:
    total, failures = 0, []
    for name, fn in SUITES.items():
        cases, fails = fn(cfg)
        total += cases
        failures += [
            {"instance": f"{name}:{f['instance']}", "expected": f["expected"], "got": f["got"]}
            for f in fails
        ]
    return {"suite": "all", "cases": total, "failures": failures}
