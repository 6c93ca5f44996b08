"""Each algebra's one-step rewriting rule presents the stated quadratic
relations: for every ordered pair of letters x y that ``rewrite_pair``
rewrites, the row x.y - sum(factor * pair) lies in the span of the
degree-2 relations.  A mutated rule that stays confluent presents another
algebra, which only this check sees; two such mutations must be caught."""

import itertools

import pytest

from ocs.assoc import AssocContext, relation_tensors
from ocs.cohomology import CohomContext
from ocs.groups import cyclic_group, strand_letters
from ocs.linalg import rank_of_rows

from test_nonabelian_oracles import s3_group


def tensor_row(terms):
    """sum c * u v over ``terms`` of (c, (u, v)), on two-letter words."""
    row = {}
    for c, word in terms:
        row[word] = row.get(word, 0) + c
    return {w: c for w, c in row.items() if c}


def wedge_row(terms):
    """sum c * u ^ v over ``terms`` of (c, (u, v)), on sorted letter pairs."""
    row = {}
    for c, (u, v) in terms:
        if u != v:
            key, c = ((u, v), c) if u < v else ((v, u), -c)
            row[key] = row.get(key, 0) + c
    return {k: c for k, c in row.items() if c}


def cohom_relations(ctx):
    """Relations (1) and (2) of the cohomology ring in exterior coordinates,
    written out from their definition."""
    group, letters = ctx.group, strand_letters(ctx.group, ctx.n)
    pairs = itertools.product(letters, repeat=2)
    rows = [wedge_row([(1, (x, y))]) for x, y in pairs if x[:2] == y[:2]]
    for t, j, i in itertools.combinations(range(1, ctx.n + 1), 3):
        for mu, nu in itertools.product(group.elements(), repeat=2):
            z = (j, t, group.multiply(mu, group.invert(nu)).uid)
            x, y = (i, t, mu.uid), (i, j, nu.uid)
            rows.append(wedge_row([(1, (x, y)), (-1, (z, y)), (1, (z, x))]))
    return rows


ALGEBRAS = {
    "chord": (AssocContext, relation_tensors, tensor_row),
    "cohom": (CohomContext, cohom_relations, wedge_row),
}


def bad_pairs(algebra, group, n):
    """The ordered letter pairs whose rewriting step is not a consequence of
    the algebra's degree-2 relations."""
    make, relations, row = ALGEBRAS[algebra]
    ctx = make(group, n)
    rows = [r for r in relations(ctx) if r]
    rank = rank_of_rows(rows)
    bad = []
    for x, y in itertools.product(strand_letters(group, n), repeat=2):
        step = ctx.rewrite_pair(x, y)
        if step is not None:
            extra = row([(1, (x, y))] + [(-factor, pair) for pair, factor in step])
            if rank_of_rows(rows + [extra]) > rank:
                bad.append((x, y))
    return bad


@pytest.mark.parametrize("algebra", sorted(ALGEBRAS))
@pytest.mark.parametrize(
    "make_group, n", [(s3_group, 3), (lambda: cyclic_group(2), 4)], ids=["S3-n3", "C2-n4"]
)
def test_each_rule_presents_the_relations(algebra, make_group, n):
    assert bad_pairs(algebra, make_group(), n) == []


def cohom_nu_inv_mu(monkeypatch):
    """Relation (2) with nu^-1 mu in place of mu nu^-1."""
    rule = CohomContext.rewrite_pair

    def mutated(self, x, y):
        step = rule(self, x, y)
        if step is None or len(step) != 2:
            return step
        (_, a, mu), (_, b, nu) = x, y
        g = self.group
        z = (b, a, g.multiply(g.invert(g.element_by_uid(nu)), g.element_by_uid(mu)).uid)
        return (((z, y), 1), ((z, x), -1))

    monkeypatch.setattr(CohomContext, "rewrite_pair", mutated)


def chord_gamma_delta(monkeypatch):
    """The chord correction for a == s with gamma delta in place of delta gamma."""
    rule = AssocContext.rewrite_pair

    def mutated(self, x, y):
        step = rule(self, x, y)
        (i, a, delta), (s, b, gamma) = x, y
        if step is None or a != s:
            return step
        g = self.group
        r = (i, b, g.multiply(g.element_by_uid(gamma), g.element_by_uid(delta)).uid)
        return (step[0], ((r, x), 1), ((x, r), -1))

    monkeypatch.setattr(AssocContext, "rewrite_pair", mutated)


@pytest.mark.parametrize(
    "algebra, mutate", [("cohom", cohom_nu_inv_mu), ("chord", chord_gamma_delta)]
)
def test_mutated_rules_are_caught(monkeypatch, algebra, mutate):
    mutate(monkeypatch)
    assert len(bad_pairs(algebra, s3_group(), 3)) == 18
