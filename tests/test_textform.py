import hashlib

import pytest

from boxops import graphs, textform
from boxops.errors import FamilyError

from conftest import family_members


def test_six_element_expression_round_trip():
    text = "3[]2((2[]3 6)[]1 4)[]2(1[]1 5)"
    obj = textform.from_box_expr(text, 3)
    assert textform.to_box_expr(obj) == text


def test_canonical_spacing_rule():
    # space after []i exactly when the next factor is a bare name
    obj = textform.from_box_expr("(1[]1 2)[]2 3", 2)
    assert textform.to_box_expr(obj) == "(1[]1 2)[]2 3"
    obj2 = textform.from_box_expr("1[]2(2[]1 3)", 2)
    assert textform.to_box_expr(obj2) == "1[]2(2[]1 3)"


def test_expression_round_trip_exhaustive_m():
    for n, k in [(2, 3), (3, 3), (2, 4)]:
        for obj in family_members("m", n, k):
            text = textform.to_box_expr(obj)
            assert textform.from_box_expr(text, n) == obj


# sha256 over the expression of every m member, one line each in key order,
# as rendered when each block was re-derived by restriction
EXPRESSION_DIGESTS = {
    (3, 4): "319909d713d6212b0ea56de66b1799b3b909bb535efdbbe21491e6b9fcfaa31d",
    (2, 5): "8f713a7f4829ef28efca05c16b9dabc2c19e032791c7c2854214257b7824f272",
}


@pytest.mark.parametrize("n,k", sorted(EXPRESSION_DIGESTS))
def test_box_expressions_are_pinned(n, k):
    h = hashlib.sha256()
    for obj in family_members("m", n, k):
        h.update(textform.to_box_expr(obj).encode() + b"\n")
    assert h.hexdigest() == EXPRESSION_DIGESTS[(n, k)]


def test_flat_chains_are_associative():
    a = textform.from_box_expr("1[]2 2[]2 3", 2)
    b = textform.from_box_expr("(1[]2 2)[]2 3", 2)
    c = textform.from_box_expr("1[]2(2[]2 3)", 2)
    assert a == b == c


def test_whitespace_tolerated():
    a = textform.from_box_expr(" 1 []2 ( 2 []1 3 ) ", 2)
    assert a == textform.from_box_expr("1[]2(2[]1 3)", 2)


def test_non_decomposable_has_no_expression():
    bad = graphs.from_arcs(2, 3, [(0, 1, 1), (1, 2, 1), (2, 0, 2)])
    with pytest.raises(FamilyError):
        textform.to_box_expr(bad)


def test_mixed_labels_need_parens():
    with pytest.raises(ValueError):
        textform.from_box_expr("1[]1 2[]2 3", 2)


def test_names_must_cover_range():
    with pytest.raises(ValueError):
        textform.from_box_expr("1[]1 3", 2)


def test_trivial_objects():
    assert textform.to_box_expr(graphs.point(2)) == "1"
    assert textform.to_box_expr(graphs.empty(2)) == "0"
    assert textform.from_box_expr("0", 2) == graphs.empty(2)
    assert textform.from_box_expr("1", 2) == graphs.point(2)


def test_raw_form_round_trip():
    for n, k in [(2, 3), (3, 4)]:
        objs = family_members("ke", n, k)
        for obj in objs[:: max(1, len(objs) // 50)]:
            raw = textform.to_raw(obj)
            assert textform.from_raw(raw) == obj


def test_raw_form_shape():
    obj = textform.from_box_expr("1[]2 2", 2)
    assert textform.to_raw(obj) == "n=2;k=2;edges=1-2:2:+"
    assert textform.to_raw(graphs.point(2)) == "n=2;k=1;edges="
    assert textform.from_raw("n=2;k=1;edges=") == graphs.point(2)


def test_raw_form_rejects_garbage():
    with pytest.raises(ValueError):
        textform.from_raw("k=2;edges=")
    with pytest.raises(ValueError):
        textform.from_raw("n=2;k=2;edges=1-2:9")
