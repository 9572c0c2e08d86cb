"""Path-name rendering and parsing."""

import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from adaptdom.errors import BadToken, ParseError
from adaptdom.paths import PathName, check_token, check_tokens, render_relative

TOKENS = st.from_regex(r"[A-Za-z0-9_-]{1,64}", fullmatch=True)
TOKEN_RE_REFERENCE = re.compile(r"[A-Za-z0-9_-]{1,64}")


def test_root_renders_as_slash():
    assert PathName.root().render() == "/"
    assert PathName.parse("/") == PathName.root()
    assert PathName.root().is_root


def test_simple_round_trip():
    p = PathName(("healing", "hostA"))
    assert p.render() == "/healing/hostA"
    assert PathName.parse("/healing/hostA") == p


def test_parse_rejects_relative_and_trailing():
    with pytest.raises(ParseError):
        PathName.parse("healing")
    with pytest.raises(ParseError):
        PathName.parse("/healing/")
    with pytest.raises(ParseError):
        PathName.parse("/a//b")


def test_token_grammar():
    check_token("a-b_C9")
    with pytest.raises(BadToken):
        check_token("")
    with pytest.raises(BadToken):
        check_token("a/b")
    with pytest.raises(BadToken):
        check_token("x" * 65)
    with pytest.raises(BadToken):
        check_token("a\n")  # `$` alone would match before a final newline
    with pytest.raises(BadToken):
        PathName(("ok", "not ok"))
    with pytest.raises(ParseError):
        PathName.parse("/a\n")


BAD_TOKENS = ("", "a b", "a|b", "a.b", "x" * 65, "a\n", " ")


@given(st.lists(st.one_of(TOKENS, st.sampled_from(BAD_TOKENS), st.text(max_size=66)),
                max_size=6),
       st.one_of(st.sampled_from((0, 4095, 4096, 4097, 8191, 8192)), st.integers(0, 9000)),
       st.integers(0, 2))
def test_check_tokens_rejects_exactly_the_first_bad_token(names, at, after):
    # Good tokens before and after move the names across the 4,096-token chunks.
    tokens = ["ok"] * at + names + ["ok"] * after
    bad = [t for t in tokens if not TOKEN_RE_REFERENCE.fullmatch(t)]
    if bad:
        with pytest.raises(BadToken, match=re.escape(repr(bad[0]))):
            check_tokens(tokens)
    else:
        check_tokens(tokens)


def test_render_and_ordering():
    p = PathName(("a", "b"))
    assert p.render() == "/a/b"
    assert PathName(("a",)) < PathName(("a", "b")) < PathName(("b",))


def test_render_relative():
    assert render_relative(()) == ""
    assert render_relative(("d", "x")) == "d/x"


@given(st.lists(TOKENS, max_size=6))
def test_render_parse_inverse(tokens):
    p = PathName(tuple(tokens))
    assert PathName.parse(p.render()) == p


@given(st.lists(TOKENS, min_size=1, max_size=6))
def test_parse_render_inverse_on_rendered_text(tokens):
    text = "/" + "/".join(tokens)
    assert PathName.parse(text).render() == text
