"""Cross-route consistency: the span of rewritten products of generators
must have exactly the dimension the independent counting/rank oracles
predict, in every algebra.  A rewriting bug that silently conflated or
dropped basis elements would break these ranks."""

from ocs.groups import cyclic_group
from ocs import assoc as assoc_mod
from ocs import cohomology as cohom_mod
from ocs import lie as lie_mod
from ocs.linalg import rank_of_rows


def generator_triples(group, n):
    return [
        (i, j, el)
        for i in range(2, n + 1)
        for j in range(1, i)
        for el in group.elements()
    ]


def test_lie_bracket_span_matches_graded_dimension():
    C2 = cyclic_group(2)
    ctx = lie_mod.LieContext(C2, 3)
    gens = generator_triples(C2, 3)
    deg2 = []
    inners = []
    for a in gens:
        for b in gens:
            nf = ctx.bracket(ctx.generator(*a), ctx.generator(*b))
            inners.append(nf)
            row = {(blk,) + w: c for (blk, w), c in nf.terms.items()}
            if row:
                deg2.append(row)
    assert rank_of_rows(deg2) == lie_mod.graded_dimension(ctx, 2) == 7
    deg3 = []
    for inner in inners:
        if inner.is_zero():
            continue
        for c in gens:
            nf = ctx.bracket(inner, ctx.generator(*c))
            row = {(blk,) + w: coef for (blk, w), coef in nf.terms.items()}
            if row:
                deg3.append(row)
    assert rank_of_rows(deg3) == lie_mod.graded_dimension(ctx, 3) == 22


def test_assoc_product_span_matches_hilbert():
    C2 = cyclic_group(2)
    ctx = assoc_mod.AssocContext(C2, 3)
    gens = generator_triples(C2, 3)
    rows = [
        dict((ctx.generator(*a) * ctx.generator(*b)).terms)
        for a in gens
        for b in gens
    ]
    assert rank_of_rows(rows) == assoc_mod.hilbert_coefficients(ctx, 2)[2] == 28


def test_cup_span_matches_poincare():
    C2 = cyclic_group(2)
    ctx = cohom_mod.CohomContext(C2, 3)
    gens = generator_triples(C2, 3)
    rows = []
    for a in gens:
        for b in gens:
            p = ctx.cup(ctx.generator(*a), ctx.generator(*b))
            if not p.is_zero():
                rows.append(dict(p.terms))
    assert rank_of_rows(rows) == cohom_mod.poincare_polynomial(ctx)[2] == 8


def test_trivial_group_spans():
    triv = cyclic_group(1)
    ctx = lie_mod.LieContext(triv, 3)
    gens = generator_triples(triv, 3)
    rows = []
    for a in gens:
        for b in gens:
            nf = ctx.bracket(ctx.generator(*a), ctx.generator(*b))
            row = {(blk,) + w: c for (blk, w), c in nf.terms.items()}
            if row:
                rows.append(row)
    assert rank_of_rows(rows) == lie_mod.graded_dimension(ctx, 2) == 1
    cctx = cohom_mod.CohomContext(triv, 3)
    rows = []
    for a in gens:
        for b in gens:
            p = cctx.cup(cctx.generator(*a), cctx.generator(*b))
            if not p.is_zero():
                rows.append(dict(p.terms))
    assert rank_of_rows(rows) == cohom_mod.poincare_polynomial(cctx)[2] == 2
