"""JSON expression ASTs and canonical JSON serialization.

Node shapes (single-key objects):

  lie      {"gen": {"i":3,"j":1,"sigma":"a1"}} | {"bracket":[A,B]}
           | {"add":[...]} | {"scale":{"coef":"3/4","arg":A}}
  assoc    {"word":[letter,...]} | {"mul":[...]} | {"add":[...]} | {"scale":...}
  poisson  {"gen":...} | {"lambda":[A,B]} | {"mul":[...]} | {"add":[...]}
           | {"scale":...}   (a {"grading":{"k":..,"q":..},"expr":...}
           envelope is accepted at the top level by the CLI)
  cohom    {"gen":...} | {"cup":[...]} | {"add":[...]} | {"scale":...}

Decorations are element literals of the group backend; coefficients are
exact rationals written "p/q" or "p".  Serialized outputs are sorted by
the per-module canonical orders so identical inputs yield identical bytes.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from typing import TYPE_CHECKING, List

from .errors import ParseError

if TYPE_CHECKING:
    from .assoc import AssocContext, AssocElement
    from .cohomology import CohomContext, CohomElement
    from .lie import LieContext, LieElement
    from .poisson import PoissonContext, PoissonElement

_AST_DOC = "see the expression AST schema in the README"


def parse_coefficient(raw) -> Fraction:
    if isinstance(raw, bool):
        raise ParseError(f"bad coefficient {raw!r}")
    if isinstance(raw, int):
        return Fraction(raw)
    if isinstance(raw, str):
        try:
            return Fraction(raw)
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"bad coefficient {raw!r}") from exc
    raise ParseError(f"bad coefficient {raw!r}")


def format_coefficient(c: Fraction) -> str:
    return str(c)


def _node_kind(node, allowed) -> str:
    if not isinstance(node, dict) or len(node) != 1:
        raise ParseError(f"expression node must be a single-key object; {_AST_DOC}")
    (kind,) = node.keys()
    if kind not in allowed:
        raise ParseError(f"unknown node kind {kind!r}; expected one of {sorted(allowed)}")
    return kind


def _parse_triple(obj, group):
    if not isinstance(obj, dict) or set(obj) != {"i", "j", "sigma"}:
        raise ParseError('generator needs fields {"i", "j", "sigma"}')
    i, j = obj["i"], obj["j"]
    if type(i) is not int or type(j) is not int:
        raise ParseError("generator indices must be integers")
    return i, j, group.parse_element(str(obj["sigma"]))


def _triple_jsonable(group, i, j, uid):
    return {"i": i, "j": j, "sigma": group.format_element(group.element_by_uid(uid))}


def _primitive_jsonable(group, top, word):
    """A (top index, Lyndon word) label: a Lie term or a Poisson factor."""
    return {"top": top, "word": [_triple_jsonable(group, top, j, uid) for j, uid in word]}


# -- evaluation --------------------------------------------------------------


def _evaluate(node, ctx, leaves, brackets, products):
    """Evaluate an AST node of one grammar.  ``leaves`` maps leaf kinds to
    parsers (body, ctx) -> element; kinds in ``brackets`` take exactly two
    operands and apply ``ctx.bracket``; kinds in ``products`` multiply a
    list of operands starting from ``ctx.one()``.  Every grammar also has
    "add" and "scale"."""
    kind = _node_kind(node, {*leaves, *brackets, *products, "add", "scale"})
    body = node[kind]
    if kind in leaves:
        return leaves[kind](body, ctx)
    if kind == "scale":
        if not isinstance(body, dict) or set(body) != {"coef", "arg"}:
            raise ParseError('scale needs fields {"coef", "arg"}')
        coef = parse_coefficient(body["coef"])
        return _evaluate(body["arg"], ctx, leaves, brackets, products).scale(coef)
    if kind in brackets:
        if not isinstance(body, list) or len(body) != 2:
            raise ParseError(f"{kind} needs exactly two operands")
        left, right = (_evaluate(x, ctx, leaves, brackets, products) for x in body)
        return ctx.bracket(left, right)
    if not isinstance(body, list):
        raise ParseError(f"{kind} needs a list of operands")
    out, combine = (ctx.zero(), operator.add) if kind == "add" else (ctx.one(), operator.mul)
    for child in body:
        out = combine(out, _evaluate(child, ctx, leaves, brackets, products))
    return out


def _gen(body, ctx):
    return ctx.generator(*_parse_triple(body, ctx.group))


def _cohom_gen(body, ctx):
    i, j, sigma = _parse_triple(body, ctx.group)
    if i < j:
        i, j, sigma = j, i, ctx.group.invert(sigma)
    return ctx.generator(i, j, sigma)


def _word(body, ctx):
    if not isinstance(body, list):
        raise ParseError("word needs a list of letters")
    return ctx.word([ctx.letter(*_parse_triple(obj, ctx.group)) for obj in body])


def eval_lie(node, ctx: LieContext) -> LieElement:
    return _evaluate(node, ctx, {"gen": _gen}, ("bracket",), ())


def eval_assoc(node, ctx: AssocContext) -> AssocElement:
    return _evaluate(node, ctx, {"word": _word}, (), ("mul",))


def eval_poisson(node, ctx: PoissonContext) -> PoissonElement:
    return _evaluate(node, ctx, {"gen": _gen}, ("lambda",), ("mul",))


def eval_cohom(node, ctx: CohomContext) -> CohomElement:
    return _evaluate(node, ctx, {"gen": _cohom_gen}, (), ("cup",))


# -- serialization -----------------------------------------------------------


def lie_jsonable(x: LieElement) -> List[dict]:
    group = x.ctx.group
    return [
        {**_primitive_jsonable(group, *label), "coef": format_coefficient(c)}
        for label, c in x.sorted_terms()
    ]


def _strand_words_jsonable(x, key: str) -> List[dict]:
    """Chord or cohomology terms in canonical order, each word under ``key``."""
    group = x.ctx.group
    return [
        {
            key: [_triple_jsonable(group, i, j, uid) for i, j, uid in w],
            "coef": format_coefficient(c),
        }
        for w, c in x.sorted_terms()
    ]


def assoc_jsonable(x: AssocElement) -> List[dict]:
    return _strand_words_jsonable(x, "word")


def poisson_jsonable(x: PoissonElement) -> List[dict]:
    group = x.ctx.group
    out = []
    for mono, c in x.sorted_terms():
        out.append(
            {
                "degree": x.ctx.monomial_degree(mono),
                "factors": [_primitive_jsonable(group, *p) for p in mono],
                "coef": format_coefficient(c),
            }
        )
    return out


def cohom_jsonable(x: CohomElement) -> List[dict]:
    return _strand_words_jsonable(x, "monomial")
