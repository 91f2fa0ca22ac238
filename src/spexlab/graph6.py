"""Bit-exact graph6 encoder/decoder.

Format: a size header (one byte for n <= 62, '~' + 3 bytes for n <= 258047,
'~~' + 6 bytes above that), then the upper triangle of the adjacency matrix
read column by column ((0,1), (0,2), (1,2), (0,3), ...) packed MSB-first
into 6-bit groups, each offset by 63. Padding bits must be zero.
"""

from __future__ import annotations

import base64

from .graph import MAX_VERTICES, Graph

# graph6 writes a 6-bit group v as byte 63 + v and base64 as the v-th letter
# of its alphabet, so the body goes through base64 with one byte map.
_B64 = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
_G6 = bytes(range(63, 127))
_TO_G6 = bytes.maketrans(_B64, _G6)
_FROM_G6 = bytes.maketrans(_G6, _B64)


class Graph6Error(ValueError):
    """Malformed graph6 input; ``offset`` is the byte position at fault."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


def graph6_from_body(n: int, body: int) -> bytes:
    """graph6 of the n-vertex graph whose upper triangle, read column by
    column, is the n(n-1)/2-bit int ``body``, most significant bit first."""
    if n <= 62:
        header = bytes([63 + n])
    elif n <= 258047:
        header = b"~" + bytes(63 + (n >> s & 63) for s in (12, 6, 0))
    else:
        header = b"~~" + bytes(63 + (n >> s & 63) for s in (30, 24, 18, 12, 6, 0))
    bits = n * (n - 1) // 2
    pad = -bits % 24  # whole base64 quanta: no '=' padding
    raw = (body << pad).to_bytes((bits + pad) // 8, "big")
    return header + base64.b64encode(raw).translate(_TO_G6)[: -(-bits // 6)]


def graph6_encode(g: Graph) -> str:
    bits = "".join(
        format(g.row(j) & ((1 << j) - 1), f"0{j}b")[::-1] for j in range(1, g.n)
    )
    return graph6_from_body(g.n, int(bits or "0", 2)).decode("ascii")


def graph6_decode(s: str) -> Graph:
    # Everything before the first non-ASCII character is one byte a character,
    # so character and byte offsets agree up to it.
    cut = len(s)
    if not s.isascii():
        cut = next(i for i, c in enumerate(s) if not c.isascii())
    data = s[:cut].encode("ascii")
    bad = data.translate(None, _G6)  # the bytes outside 63..126, in order
    if bad:
        raise Graph6Error(
            f"byte {bad[0]} outside graph6 range 63..126", data.index(bad[0])
        )
    if cut < len(s):
        raise Graph6Error(
            f"non-ASCII character {s[cut]!r} outside graph6 range 63..126", cut
        )
    if not data:
        raise Graph6Error("empty input", 0)
    pos = 0
    if data[0] != 126:
        n = data[0] - 63
        pos = 1
    elif len(data) >= 2 and data[1] != 126:
        if len(data) < 4:
            raise Graph6Error("truncated 4-byte size header", len(data))
        n = 0
        for b in data[1:4]:
            n = n << 6 | (b - 63)
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
    body = data[pos:].translate(_FROM_G6)
    body += b"A" * (-len(body) % 4)  # zero groups up to whole base64 quanta
    value = int.from_bytes(base64.b64decode(body), "big")
    bits = format(value, f"0{6 * len(body)}b")[: 6 * nbytes]
    if "1" in bits[nbits:]:
        bad = bits.index("1", nbits)
        raise Graph6Error("nonzero padding bit", pos + bad // 6)
    rows = [0] * n
    at = 0
    for j in range(1, n):
        col = bits[at : at + j]
        at += j
        below = int(col[::-1], 2) if j else 0
        rows[j] |= below
        c = below
        while c:
            i = (c & -c).bit_length() - 1
            rows[i] |= 1 << j
            c &= c - 1
    return Graph._derived(n, rows)  # symmetric and loop-free by construction
