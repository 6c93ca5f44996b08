"""The package imports each module on first use, so a command loads only
what it needs."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ocs

SRC = str(Path(ocs.__file__).resolve().parent.parent)


def _fresh(code: str) -> str:
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return done.stdout


def test_cli_import_leaves_the_algebra_modules_unloaded():
    loaded = json.loads(
        _fresh("import json, sys, ocs.cli; print(json.dumps(sorted(sys.modules)))")
    )
    for name in ("ocs.assoc", "ocs.cohomology", "ocs.poisson", "ocs.verify", "ocs.lie"):
        assert name not in loaded
    assert {"ocs", "ocs.cli", "ocs.errors", "ocs.expressions", "ocs.groups"} <= set(loaded)


def test_every_public_name_resolves_in_a_fresh_interpreter():
    out = _fresh(
        "import ocs\n"
        "from ocs import verify\n"
        "print(all(getattr(ocs, name) is not None for name in ocs.__all__), verify.__name__)"
    )
    assert out.split() == ["True", "ocs.verify"]


def test_public_names_come_from_their_modules():
    from ocs import groups, lie, poisson

    assert ocs.LieContext is lie.LieContext
    assert ocs.PoissonGrading is poisson.PoissonGrading
    assert ocs.load_group is groups.load_group
    assert "__version__" in ocs.__all__ and ocs.__version__


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'NoSuchThing'"):
        ocs.NoSuchThing


@pytest.mark.parametrize("statement", ["import ocs.cli", "from ocs import verify"])
def test_entry_points_leave_dataclasses_and_inspect_unloaded(statement):
    # dataclasses pulls in inspect, ast, dis and tokenize: about 7 ms of
    # every cold CLI request
    loaded = json.loads(
        _fresh(f"import json, sys\n{statement}\nprint(json.dumps(sorted(sys.modules)))")
    )
    assert "dataclasses" not in loaded and "inspect" not in loaded
