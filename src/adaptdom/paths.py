"""Root-anchored path names over the domain hierarchy.

A path is a sequence of local-name tokens. The empty sequence renders as
"/" and names the root domain. Tokens match [A-Za-z0-9_-]{1,64}; "/" is
reserved as the separator, so rendering needs no escaping and parsing is
the exact inverse of rendering.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Sequence

from .errors import BadToken, ParseError

TOKEN_RE = re.compile(r"[A-Za-z0-9_-]{1,64}")
_TOKENS_RE = re.compile(f"{TOKEN_RE.pattern}(?: {TOKEN_RE.pattern})*")


def check_token(token: str) -> str:
    """Return `token` if it is a valid local name, else raise BadToken."""
    if not TOKEN_RE.fullmatch(token):
        raise BadToken(f"invalid local name: {token!r}")
    return token


def check_tokens(tokens: Sequence[str]) -> None:
    """Raise BadToken for the first of `tokens` outside the token grammar,
    which component ids, kinds, hosts and ports obey too: traces join them
    with `|`, `,`, `:`, `.` and `>`. Tokens are matched joined, 4,096 at a
    time (a match keeps a frame per token), and one by one on a failure."""
    for start in range(0, len(tokens), 4096):
        chunk = tokens[start:start + 4096]
        joined = " ".join(chunk)
        if _TOKENS_RE.fullmatch(joined) and joined.count(" ") == len(chunk) - 1:
            continue
        for token in chunk:
            if not TOKEN_RE.fullmatch(token):
                raise BadToken(f"invalid token: {token!r}")


@dataclass(frozen=True)
class PathName:
    """An immutable root-anchored traversal of the domain hierarchy."""

    segments: tuple[str, ...] = ()

    def __post_init__(self):
        for seg in self.segments:
            check_token(seg)

    @classmethod
    def root(cls) -> "PathName":
        return cls(())

    @classmethod
    def parse(cls, text: str) -> "PathName":
        if not text.startswith("/"):
            raise ParseError(f"path must start with '/': {text!r}")
        if text == "/":
            return cls(())
        body = text[1:]
        if body.endswith("/"):
            raise ParseError(f"trailing separator in path: {text!r}")
        segments = body.split("/")
        for seg in segments:
            if not TOKEN_RE.fullmatch(seg):
                raise ParseError(f"invalid path segment {seg!r} in {text!r}")
        return cls(tuple(segments))

    def render(self) -> str:
        return "/" + "/".join(self.segments)

    @property
    def is_root(self) -> bool:
        return not self.segments

    def __str__(self) -> str:
        return self.render()

    def __lt__(self, other: "PathName") -> bool:
        return self.render() < other.render()


def render_relative(segments: tuple[str, ...]) -> str:
    """Relative rendering used by enumeration: no leading separator."""
    return "/".join(segments)
