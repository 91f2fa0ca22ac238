"""graph6 codec: frozen literals, round-trips, networkx agreement, errors."""

from __future__ import annotations

import random

import networkx as nx
import pytest
from hypothesis import given, settings

from helpers import graphs, random_graph, to_nx
from spexlab.graph import (
    MAX_VERTICES,
    Graph,
    complete,
    complete_bipartite,
    cycle,
    empty_graph,
    join,
    path,
    star,
)
from spexlab.graph6 import Graph6Error, graph6_decode, graph6_encode


def reference_encode(g: Graph) -> str:
    """graph6 with the body packed one 6-bit group at a time."""
    n = g.n
    if n <= 62:
        header = chr(63 + n)
    else:
        header = "~" + "".join(chr(63 + (n >> s & 63)) for s in (12, 6, 0))
    bits = "".join(
        format(g.row(j) & ((1 << j) - 1), f"0{j}b")[::-1] for j in range(1, n)
    )
    bits += "0" * (-len(bits) % 6)
    body = "".join(chr(63 + int(bits[i : i + 6], 2)) for i in range(0, len(bits), 6))
    return header + body


def reference_decode(s: str) -> Graph:
    """graph6 decoder unpacking the body one 6-bit group at a time."""
    for i, c in enumerate(s):
        if not 63 <= ord(c) <= 126:
            what = f"byte {ord(c)}" if c.isascii() else f"non-ASCII character {c!r}"
            raise Graph6Error(f"{what} outside graph6 range 63..126", i)
    data = s.encode("ascii")
    if not data:
        raise Graph6Error("empty input", 0)
    if data[0] != 126:
        n, pos = data[0] - 63, 1
    elif len(data) >= 2 and data[1] != 126:
        if len(data) < 4:
            raise Graph6Error("truncated 4-byte size header", len(data))
        n = (data[1] - 63) << 12 | (data[2] - 63) << 6 | (data[3] - 63)
        if n < 63:
            raise Graph6Error("non-canonical long size header", 1)
        pos = 4
    else:
        if len(data) < 8:
            raise Graph6Error("truncated 8-byte size header", len(data))
        n = 0
        for b in data[2:8]:
            n = n << 6 | (b - 63)
        if n < 258048:
            raise Graph6Error("non-canonical huge size header", 2)
        pos = 8
    if n > MAX_VERTICES:
        raise Graph6Error(f"vertex count {n} exceeds cap {MAX_VERTICES}", 0)
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    if len(data) - pos != nbytes:
        raise Graph6Error(
            f"expected {nbytes} data bytes for n={n}, got {len(data) - pos}",
            min(len(data), pos + nbytes),
        )
    bits = "".join(format(b - 63, "06b") for b in data[pos:])
    if "1" in bits[nbits:]:
        raise Graph6Error("nonzero padding bit", pos + bits.index("1", nbits) // 6)
    rows = [0] * n
    at = 0
    for j in range(1, n):
        for i in range(j):
            if bits[at + i] == "1":
                rows[i] |= 1 << j
                rows[j] |= 1 << i
        at += j
    return Graph(n, rows)


# Literals frozen from networkx.to_graph6_bytes on the same graphs.
FROZEN = [
    (complete(5), "D~{"),
    (cycle(4), "Cl"),
    (path(4), "Ch"),
    (star(6), "Esa?"),
    (empty_graph(0), "?"),
    (empty_graph(1), "@"),
    (complete_bipartite(2, 3), "D]o"),
    (join(complete(1), path(4)), "D|c"),
]


@pytest.mark.parametrize("g,expected", FROZEN, ids=[s for _, s in FROZEN])
def test_frozen_literals(g, expected):
    assert graph6_encode(g) == expected
    assert graph6_decode(expected) == g


def test_long_form_header():
    # n >= 63 switches to the '~' multi-byte order encoding
    assert graph6_encode(empty_graph(63)).startswith("~??")
    assert graph6_decode(graph6_encode(complete(63))) == complete(63)
    assert graph6_decode(graph6_encode(empty_graph(100))) == empty_graph(100)


@given(graphs(max_n=30))
@settings(max_examples=120, deadline=None)
def test_roundtrip(g):
    assert graph6_decode(graph6_encode(g)) == g


def test_networkx_agreement():
    rnd = random.Random(1906)
    for _ in range(200):
        n = rnd.randint(0, 40)
        g = random_graph(rnd, n, rnd.choice([0.1, 0.3, 0.5, 0.9]))
        ref = nx.to_graph6_bytes(to_nx(g), header=False).decode().strip()
        assert graph6_encode(g) == ref
        back = nx.from_graph6_bytes(ref.encode())
        assert graph6_decode(ref).edge_count() == back.number_of_edges()
        assert graph6_decode(ref) == g


def test_padding_boundaries():
    # orders where the bit payload ends exactly on / just off a 6-bit boundary
    for n in (2, 3, 4, 12, 13, 61, 62, 63, 64):
        g = path(n) if n >= 1 else empty_graph(n)
        ref = nx.to_graph6_bytes(to_nx(g), header=False).decode().strip()
        assert graph6_encode(g) == ref
        assert graph6_decode(ref) == g


def test_decode_errors():
    with pytest.raises(Graph6Error):
        graph6_decode("")
    with pytest.raises(Graph6Error):
        graph6_decode("D~")  # truncated payload for n=5
    with pytest.raises(Graph6Error):
        graph6_decode("C" + chr(30))  # byte below the printable range
    with pytest.raises(Graph6Error):
        graph6_decode("Cl extra")


CODEC_ORDERS = (0, 1, 2, 3, 5, 12, 13, 61, 62, 63, 64, 65, 100, 130)


def test_codec_matches_per_group_reference():
    rnd = random.Random(6363)
    for n in CODEC_ORDERS:
        for p in (0.0, 0.1, 0.5, 1.0):
            g = random_graph(rnd, n, p)
            text = graph6_encode(g)
            assert text == reference_encode(g)
            assert (n <= 62) == (not text.startswith("~"))
            assert graph6_decode(text) == reference_decode(text) == g


def _padding_set(text: str, n: int) -> str:
    """text with the lowest padding bit of its last byte set (n has some)."""
    assert n * (n - 1) // 2 % 6
    return text[:-1] + chr(63 + ((ord(text[-1]) - 63) | 1))


MALFORMED = [
    "",
    "C" + chr(30),
    "D~{" + chr(127),
    "Cl extra",
    "Dh" + chr(127) + chr(30) + chr(127),
    "D~",
    "Clx",
    "~",
    "~??",
    "~~???",
    "~???",
    "~??~",
    "~~??????",
    "~~??A???",
    "~?A?" + "?" * 10,
    _padding_set(graph6_encode(path(2)), 2),
    _padding_set(graph6_encode(cycle(5)), 5),
    _padding_set(graph6_encode(complete(14)), 14),
    _padding_set(graph6_encode(empty_graph(63)), 63),
    _padding_set(graph6_encode(path(101)), 101),
    "\u00e9",
    "C\u00e9",
    "Cl\u00e9",
    "C \u00e9",
    "\u00e9" + chr(30),
    "~\u00e9??",
    "C\U0001f600",
    "D~{\u00e9\u00e9",
]


@pytest.mark.parametrize("text", MALFORMED, ids=[repr(t[:12]) for t in MALFORMED])
def test_malformed_errors_match_reference(text):
    with pytest.raises(Graph6Error) as want:
        reference_decode(text)
    with pytest.raises(Graph6Error) as got:
        graph6_decode(text)
    assert got.value.offset == want.value.offset
    assert str(got.value) == str(want.value)
