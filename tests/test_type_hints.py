"""Every element class's annotations resolve, so ``typing.get_type_hints``
and tools built on it work on them."""

import typing

import pytest

from ocs.assoc import AssocElement
from ocs.cohomology import CohomElement
from ocs.lie import LieElement
from ocs.poisson import PoissonElement
from ocs.sparse import Combination


@pytest.mark.parametrize("cls", [Combination, AssocElement, CohomElement, PoissonElement, LieElement])
def test_type_hints_resolve(cls):
    hints = typing.get_type_hints(cls)
    assert {"ctx", "terms"} <= set(hints)
