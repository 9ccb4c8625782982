import math

import pytest

from fqminors.errors import BadArgumentsError
from fqminors.formulas import cq_constant
from fqminors.gf import field
from fqminors.matrix import FqMatrix
from fqminors.matroid import catalog, from_matrix, uniform
from fqminors.sampler import parse_event
from fqminors.sweep import m_for


@pytest.mark.parametrize("run, message", [
    (lambda: field(6), "q=6 is not a prime power"),
    (lambda: field(32), "q=32 exceeds the table bound 16"),
    (lambda: FqMatrix(field(3), 1, 2, (0, 3)), "entry 3 out of range for GF(3)"),
    (lambda: from_matrix(FqMatrix(field(2), 1, 21, (1,) * 21)),
     "21 columns exceed the 20-element bound"),
    (lambda: catalog("X"), "unknown catalog name 'X'"),
    (lambda: catalog("U:5,3"), "uniform matroid needs 0 <= k <= n <= 20"),
    (lambda: uniform(1, 3).minor(0b1, 0b11), "contract and delete sets overlap"),
    (lambda: cq_constant(2, math.inf), "tolerance must be positive and finite, got inf"),
    (lambda: parse_event("nope"), "unknown event 'nope'"),
    (lambda: m_for("bogus:1", 4), "unknown m_rule 'bogus:1'"),
], ids=["not-prime-power", "field-too-large", "entry-out-of-range", "ground-too-large",
        "unknown-name", "bad-uniform", "overlapping-sets", "bad-tolerance", "unknown-event",
        "unknown-m-rule"])
def test_every_rejected_input_is_one_usage_error(run, message):
    with pytest.raises(BadArgumentsError) as info:
        run()
    assert type(info.value) is BadArgumentsError
    assert str(info.value) == message
