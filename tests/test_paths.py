from __future__ import annotations

import pytest

import symsearch as ss
from symsearch.errors import PathSyntaxError
from symsearch.paths import KeyPath


def test_root_renders_empty():
    assert KeyPath().render() == ""
    assert KeyPath.parse("") == KeyPath()


def test_rendering_grammar():
    path = KeyPath(("model", "children", 0, "filters"))
    assert path.render() == "model.children[0].filters"


def test_parse_is_inverse_of_render():
    texts = [
        "",
        "model",
        "model.children[0].filters",
        "[0]",
        "[3][4]",
        "a.b.c",
        "a[0].b[12][3].c",
        "_x9.y_",
    ]
    for text in texts:
        assert KeyPath.parse(text).render() == text


def test_render_is_inverse_of_parse():
    path = KeyPath((2, "k", 0))
    assert KeyPath.parse(path.render()) == path


@pytest.mark.parametrize("bad", [".a", "a..b", "a.", "[1", "[-1]", "a[b]", "[1]x", "a b", "1a",
                                 "[01]", "a[00]", "[\u0661]"])
def test_bad_syntax_rejected(bad):
    with pytest.raises(PathSyntaxError):
        KeyPath.parse(bad)


def test_an_index_has_one_spelling():
    """A leading zero is refused: "a[01]" would otherwise address the
    element that "a[1]" deletes, and the plan would drop the Delete."""
    with pytest.raises(PathSyntaxError):
        ss.rebind(ss.to_symbolic({"a": [1, 2, 3]}), {"a[1]": ss.DELETE, "a[01]": ss.Insert(9)})


def test_child_and_parent():
    path = KeyPath.parse("a[1]")
    assert path.child("b").render() == "a[1].b"
    assert path.parent.render() == "a"
    assert path.last == 1


def test_package_exports_resolve():
    assert all(hasattr(ss, name) for name in ss.__all__)
    assert not hasattr(ss, "MapKey") and not hasattr(ss, "ListIndex")
