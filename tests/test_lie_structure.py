"""Integer coefficients and the per-(group, n) memos of the Lie structure."""

import gc
import random
import weakref
from fractions import Fraction

from ocs import expressions
from ocs import lie as lie_mod
from ocs.assoc import AssocContext
from ocs.cohomology import CohomContext
from ocs.groups import cyclic_group
from ocs.lie import LieContext
from ocs.poisson import PoissonContext, PoissonGrading, suspension
from ocs.verify import VerifyConfig, eval_expression_tree, random_expression_tree, run_suite


class TestSharedStructure:
    def test_contexts_of_every_grading_share_one_structure(self):
        C2 = cyclic_group(2)
        ctx1, ctx3 = LieContext(C2, 3, q=1), LieContext(C2, 3, q=3)
        assert ctx1._deriv_cache is ctx3._deriv_cache
        pctx = PoissonContext(C2, 3, PoissonGrading(3, 2))
        assert pctx.lie._deriv_cache is ctx1._deriv_cache
        suspended = suspension(pctx.generator(2, 1, C2.identity()))
        assert suspended.ctx.lie._deriv_cache is ctx1._deriv_cache
        g = C2.parse_element("g")
        ctx1.bracket(ctx1.generator(3, 1, g), ctx1.generator(2, 1, g))
        assert ctx3._deriv_cache  # filled through ctx1

    def test_n_and_group_object_separate_structures(self):
        C2, other = cyclic_group(2), cyclic_group(2)
        assert LieContext(C2, 3)._deriv_cache is not LieContext(C2, 4)._deriv_cache
        assert LieContext(C2, 3)._deriv_cache is not LieContext(other, 3)._deriv_cache

    def test_structure_is_freed_with_its_group(self):
        group = cyclic_group(3)
        ctx = LieContext(group, 3)
        g = group.parse_element("g")
        ctx.bracket(ctx.generator(3, 1, g), ctx.generator(2, 1, g))

        class Probe:
            pass

        probe = Probe()
        ctx._deriv_cache["probe"] = probe
        probe_ref, group_ref = weakref.ref(probe), weakref.ref(group)
        gc.collect()
        before = len(lie_mod._STRUCTURES)
        del probe, ctx, g, group
        gc.collect()
        assert group_ref() is None
        assert probe_ref() is None  # the memo dict itself is gone
        assert len(lie_mod._STRUCTURES) == before - 1

    def test_q_invariance_on_separate_groups(self):
        # two group objects, so the check does not run through one shared memo
        G1, G3 = cyclic_group(3), cyclic_group(3)
        ctx1, ctx3 = LieContext(G1, 4, q=1), LieContext(G3, 4, q=3)
        assert ctx1._deriv_cache is not ctx3._deriv_cache
        rng = random.Random(11)

        def relabel(tree):
            if tree[0] == "gen":
                return tree[:3] + (G3.element_by_uid(tree[3].uid),)
            return (tree[0], relabel(tree[1]), relabel(tree[2]))

        for _ in range(30):
            tree = random_expression_tree(rng, 4, G1.elements(), rng.randint(1, 4))
            x1 = eval_expression_tree(ctx1, tree)
            x3 = eval_expression_tree(ctx3, relabel(tree))
            assert x1.blocks == x3.blocks
            assert [3 * d for d in x1.degrees()] == x3.degrees()


def _skew_memoized_derivation(monkeypatch, skewed):
    """Negate each freshly computed action of a letter on a letter when
    skewed(ctx) holds: an error inside the memoized computation, which a
    check reading one shared memo on both sides cannot see."""
    original = LieContext._act

    def act(self, s, act_word, w):
        key = (s, act_word, w)
        if key in self._deriv_cache:
            return self._deriv_cache[key]
        result = original(self, s, act_word, w)
        if len(act_word) == len(w) == 1 and skewed(self):
            result = self._deriv_cache[key] = {u: -c for u, c in result.items()}
        return result

    monkeypatch.setattr(LieContext, "_act", act)


class TestVerifySidesIndependent:
    def test_regrading_catches_a_q_dependent_bracket(self, monkeypatch):
        cfg = VerifyConfig(group="C2", n=3, seed=1, samples=30)
        assert run_suite("regrading", cfg)["failures"] == []
        _skew_memoized_derivation(monkeypatch, lambda ctx: ctx.q == 3)
        failures = run_suite("regrading", cfg)["failures"]
        assert any(f["instance"].startswith("q-invariance[") for f in failures)

    def test_suspension_catches_a_bracket_that_differs_between_sides(self, monkeypatch):
        cfg = VerifyConfig(group="C2", n=3, seed=1, samples=30)
        assert run_suite("suspension", cfg)["failures"] == []
        first = []

        def skewed(ctx):
            first[:] = first or [ctx.group]
            return ctx.group is not first[0]

        _skew_memoized_derivation(monkeypatch, skewed)
        failures = run_suite("suspension", cfg)["failures"]
        assert any(f["instance"].startswith("suspension-naturality[") for f in failures)


class TestIntegerCoefficients:
    def test_brackets_stay_integral(self):
        C3 = cyclic_group(3)
        ctx = LieContext(C3, 4)
        rng = random.Random(3)
        for _ in range(20):
            tree = random_expression_tree(rng, 4, C3.elements(), rng.randint(2, 4))
            x = eval_expression_tree(ctx, tree).scale(2) - ctx.zero()
            assert all(type(c) is int for c in x.terms.values())

    def test_rational_scale_stays_exact_and_prints(self):
        C2 = cyclic_group(2)
        g = C2.parse_element("g")
        ctx = LieContext(C2, 3)
        x = ctx.bracket(ctx.generator(2, 1, g), ctx.generator(3, 1, g))
        half = x.scale(Fraction(1, 2))
        assert [c for _, c in x.sorted_terms()] == [1]
        assert [row["coef"] for row in expressions.lie_jsonable(half)] == ["1/2"]
        assert repr(half).startswith("LieElement(1/2*[")
        assert half + half == x
        assert (half + half).sorted_terms() == x.sorted_terms()
        for make in (AssocContext, CohomContext):
            actx = make(C2, 3)
            y = actx.generator(3, 1, g).scale(Fraction(1, 2))
            assert repr(y).split("(", 1)[1].startswith("1/2*")
            assert y.scale(2) == actx.generator(3, 1, g)
        pctx = PoissonContext(C2, 3, PoissonGrading(2, 1))
        z = pctx.bracket(pctx.generator(2, 1, g).scale(Fraction(1, 2)), pctx.generator(3, 1, g))
        assert [row["coef"] for row in expressions.poisson_jsonable(z)] == ["1/2"]
