import json

import pytest

from ocs import cli, expressions
from ocs.assoc import AssocContext
from ocs.cohomology import CohomContext
from ocs.errors import ParseError
from ocs.groups import cyclic_group
from ocs.lie import LieContext
from ocs.poisson import PoissonContext, PoissonGrading

C2 = cyclic_group(2)
GEN = {"gen": {"i": 2, "j": 1, "sigma": "e"}}
LETTER = {"i": 2, "j": 1, "sigma": "e"}

GRAMMARS = {
    "lie": (expressions.eval_lie, lambda: LieContext(C2, 3)),
    "assoc": (expressions.eval_assoc, lambda: AssocContext(C2, 3)),
    "poisson": (
        expressions.eval_poisson,
        lambda: PoissonContext(C2, 3, PoissonGrading(2, 1)),
    ),
    "cohom": (expressions.eval_cohom, lambda: CohomContext(C2, 3)),
}

SHAPE = "expression node must be a single-key object; see the expression AST schema in the README"

AST_ERRORS = [
    ("lie", {"bracket": [GEN]}, "bracket needs exactly two operands"),
    ("lie", {"bracket": GEN}, "bracket needs exactly two operands"),
    ("poisson", {"lambda": [GEN, GEN, GEN]}, "lambda needs exactly two operands"),
    ("assoc", {"mul": GEN}, "mul needs a list of operands"),
    ("poisson", {"mul": "x"}, "mul needs a list of operands"),
    ("cohom", {"cup": GEN}, "cup needs a list of operands"),
    ("lie", {"add": "x"}, "add needs a list of operands"),
    ("assoc", {"add": 1}, "add needs a list of operands"),
    ("poisson", {"add": GEN}, "add needs a list of operands"),
    ("cohom", {"add": None}, "add needs a list of operands"),
    ("assoc", {"word": LETTER}, "word needs a list of letters"),
    ("lie", {"cup": []}, "unknown node kind 'cup'; expected one of ['add', 'bracket', 'gen', 'scale']"),
    ("assoc", {"gen": LETTER}, "unknown node kind 'gen'; expected one of ['add', 'mul', 'scale', 'word']"),
    (
        "poisson",
        {"bracket": [GEN, GEN]},
        "unknown node kind 'bracket'; expected one of ['add', 'gen', 'lambda', 'mul', 'scale']",
    ),
    ("cohom", {"mul": []}, "unknown node kind 'mul'; expected one of ['add', 'cup', 'gen', 'scale']"),
    ("lie", {"scale": {"coef": "1"}}, 'scale needs fields {"coef", "arg"}'),
    ("cohom", {"scale": {"coef": "x", "arg": GEN}}, "bad coefficient 'x'"),
    ("lie", [GEN], SHAPE),
    ("assoc", {"add": [], "mul": []}, SHAPE),
    ("poisson", {"gen": {"i": 2, "j": 1}}, 'generator needs fields {"i", "j", "sigma"}'),
    ("assoc", {"word": [{"i": 2, "j": 1}]}, 'generator needs fields {"i", "j", "sigma"}'),
    ("lie", {"gen": {"i": "2", "j": 1, "sigma": "e"}}, "generator indices must be integers"),
    ("lie", {"gen": {"i": 2.9, "j": 1, "sigma": "e"}}, "generator indices must be integers"),
    ("cohom", {"gen": {"i": 2, "j": True, "sigma": "e"}}, "generator indices must be integers"),
    ("assoc", {"word": [{"i": 2.0, "j": 1, "sigma": "e"}]}, "generator indices must be integers"),
]


@pytest.mark.parametrize("grammar, node, message", AST_ERRORS)
def test_ast_parse_error_messages(grammar, node, message):
    evaluate, make_ctx = GRAMMARS[grammar]
    with pytest.raises(ParseError) as info:
        evaluate(node, make_ctx())
    assert str(info.value) == message


def _spec(tmp_path, spec):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    return ["group", "ball", "--radius", "1", "--group", str(path)]


def _lie_nf(gen):
    return ["lie", "normal-form", "--n", "3", "--expr", json.dumps({"gen": gen})]


def _poisson_header(header):
    doc = {"grading": header, "expr": GEN}
    return ["poisson", "bracket", "--n", "3", "--expr", json.dumps(doc)]


CLI_INPUTS = {
    "index-float": lambda tmp: _lie_nf({"i": 2.9, "j": 1, "sigma": "e"}),
    "index-bool": lambda tmp: _lie_nf({"i": 3, "j": True, "sigma": "e"}),
    "grading-float": lambda tmp: _poisson_header({"k": 2.7, "q": 1.2}),
    "grading-bool": lambda tmp: _poisson_header({"k": 2, "q": True}),
    "grading-missing": lambda tmp: _poisson_header({"k": 2}),
    "spec-list": lambda tmp: _spec(tmp, [1, 2]),
    "spec-finite-no-fields": lambda tmp: _spec(tmp, {"kind": "finite"}),
    "spec-finite-table-not-rows": lambda tmp: _spec(
        tmp, {"kind": "finite", "elements": ["e", "g"], "table": 5}
    ),
    "spec-table-float": lambda tmp: _spec(
        tmp, {"kind": "finite", "elements": ["e", "g"], "table": [[0, 1], [1.9, 0]]}
    ),
    "spec-genus-float": lambda tmp: _spec(tmp, {"kind": "surface", "genus": 2.5}),
    "spec-genus-missing": lambda tmp: _spec(tmp, {"kind": "surface"}),
}


@pytest.mark.parametrize("case", sorted(CLI_INPUTS))
def test_cli_rejects_non_integer_input(case, tmp_path, capsys):
    code = cli.main(CLI_INPUTS[case](tmp_path))
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("ocs: error: ")


def test_cli_accepts_valid_spec_and_integers(tmp_path, capsys):
    spec = {"kind": "finite", "elements": ["e", "g"], "table": [[0, 1], [1, 0]]}
    assert cli.main(_spec(tmp_path, spec)) == 0
    assert cli.main(_poisson_header({"k": 2, "q": 1})) == 0
    capsys.readouterr()
