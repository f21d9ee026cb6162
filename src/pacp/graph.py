"""Attachment logs: the canonical in-memory form of a labeled PA multigraph.

A graph on vertices ``0..n`` grown by the preferential-attachment mechanism is
stored as its arrival log: for every arrival ``t`` in ``2..n`` the ordered list
of the ``m`` targets it attached to.  The ``t = 1`` step is implicit (``m``
parallel edges from 1 to 0).  Every quantity of interest -- degrees, tail
counts, likelihoods, the relabelable vertex set -- is a function of the log,
so adjacency structures are never materialized.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from .errors import (
    DomainError, MissingRow, PalogError, SupportViolation, TargetTooLarge, WrongOutDegree,
)

__all__ = [
    "AttachmentLog",
    "BoldSet",
    "DegreeTailCounts",
    "apply_permutation",
    "bold_vertices",
    "degree_tail_counts",
    "from_rows",
    "parse_palog",
    "format_palog",
    "load_palog",
    "save_palog",
    "substep_degrees",
    "window_tail_diff",
]

PALOG_MAGIC = "PALOG v1"
# Values an AttachmentLog keeps in its memo; one analysis of a log (a
# likelihood, a test, an estimate) asks for two windows and one sum.
_MEMO_ENTRIES = 8


class AttachmentLog:
    """Immutable arrival-ordered target log of a PA graph on vertices 0..n.

    ``targets`` is a flat int64 array of length ``(n-1)*m``; the slice
    ``targets[(t-2)*m:(t-1)*m]`` holds the targets of arrival ``t`` in
    attachment order.

    The final degree vector is cached in the ``_final`` slot: one bincount
    of the whole log fills it, read-only, the first time a degree statistic
    needs it, so every later statistic of a late window reads only the
    edges after its split.  The ``_memo`` slot keeps the last few values
    that the analyses of one log ask for more than once (each window's
    ``window_tail_diff``, ``likelihood._log_mult_sum``), so each is computed
    once per log.  Neither cache is pickled or takes part in ``==`` or
    ``hash``.
    """

    __slots__ = ("n", "m", "_targets", "_final", "_memo")

    def __init__(self, n: int, m: int, targets, *, validate: bool = True):
        if n < 1:
            raise PalogError(f"need n >= 1, got {n}")
        if m < 1:
            raise PalogError(f"need m >= 1, got {m}")
        arr = np.ascontiguousarray(targets, dtype=np.int64)
        if arr.ndim != 1 or arr.shape[0] != (n - 1) * m:
            raise WrongOutDegree(
                f"expected {(n - 1) * m} targets for n={n}, m={m}, got shape {arr.shape}"
            )
        if validate and n > 1:
            # A negative target reads as a huge unsigned one, so one
            # comparison finds both faults.
            arrival = np.arange(2, n + 1, dtype=np.uint64)[:, None]
            bad = arr.view(np.uint64).reshape(n - 1, m) >= arrival
            if bad.any():
                if (arr < 0).any():
                    raise PalogError("negative target label")
                j = int(np.argmax(bad))
                raise TargetTooLarge(f"arrival {j // m + 2} records target {int(arr[j])}")
        arr.setflags(write=False)
        self.n = int(n)
        self.m = int(m)
        self._targets = arr
        self._final = None
        self._memo = None

    @property
    def targets(self) -> np.ndarray:
        return self._targets

    def row(self, t: int) -> np.ndarray:
        """Targets of arrival ``t`` (2 <= t <= n) in attachment order."""
        if not 2 <= t <= self.n:
            raise IndexError(f"arrival {t} out of range 2..{self.n}")
        return self._targets[(t - 2) * self.m : (t - 1) * self.m]

    def rows(self) -> dict[int, list[int]]:
        return {t: self.row(t).tolist() for t in range(2, self.n + 1)}

    def _final_degrees(self) -> np.ndarray:
        """The cached, read-only degree vector of the whole graph."""
        deg = self._final
        if deg is None:
            deg = np.bincount(self._targets, minlength=self.n + 1)
            deg += self.m
            deg.setflags(write=False)
            self._final = deg
        return deg

    def _memoized(self, key, compute):
        """``compute()``, computed once for ``key`` while it is among the
        last ``_MEMO_ENTRIES`` keys used on this log."""
        memo = self._memo
        if memo is None:
            memo = self._memo = {}
        if key in memo:
            value = memo[key] = memo.pop(key)  # now the most recently used
            return value
        value = compute()
        if len(memo) >= _MEMO_ENTRIES:
            del memo[next(iter(memo))]  # the least recently used
        memo[key] = value
        return value

    def degrees(self, upto: int | None = None) -> np.ndarray:
        """Total degrees of the prefix graph on ``0..upto``, as a new array.

        Every vertex contributes its m outgoing edges (for vertex 0 the m
        implicit base edges count as in-edges), so ``d(v) = m + #hits(v)``.
        Whichever side of the split has fewer edges is read: the hits of the
        prefix, or the final degrees minus the hits after ``upto``.
        """
        t = self.n if upto is None else upto
        if not 1 <= t <= self.n:
            raise DomainError(f"prefix time {t} out of range 1..{self.n}")
        cut = (t - 1) * self.m
        late = self._targets[cut:]
        if cut <= len(late):
            deg = np.full(t + 1, self.m, dtype=np.int64)
            deg += np.bincount(self._targets[:cut], minlength=t + 1)
            return deg
        deg = self._final_degrees()[: t + 1].copy()
        if len(late):
            deg -= np.bincount(late[late <= t], minlength=t + 1)
        return deg

    def prefix(self, t: int) -> "AttachmentLog":
        """The induced log on vertices ``0..t`` (g restricted to early arrivals)."""
        if not 1 <= t <= self.n:
            raise DomainError(f"prefix time {t} out of range 1..{self.n}")
        return AttachmentLog(t, self.m, self._targets[: (t - 1) * self.m], validate=False)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, AttachmentLog)
            and self.n == other.n
            and self.m == other.m
            and bool(np.array_equal(self._targets, other._targets))
        )

    def __hash__(self):
        return hash((self.n, self.m, self._targets.tobytes()))

    def __reduce__(self):
        return (AttachmentLog, (self.n, self.m, self._targets))

    def __repr__(self) -> str:
        return f"AttachmentLog(n={self.n}, m={self.m})"


def from_rows(n: int, m: int, rows: Mapping[int, Iterable[int]]) -> AttachmentLog:
    """Build a validated log from a header and per-arrival target rows.

    ``rows`` must contain exactly one entry for every t in 2..n.
    """
    if n < 1 or m < 1:
        raise PalogError(f"need n >= 1 and m >= 1, got n={n}, m={m}")
    flat = np.empty((n - 1) * m, dtype=np.int64)
    seen = set(rows)
    for t in range(2, n + 1):
        if t not in seen:
            raise MissingRow(f"no row for arrival {t}")
        row = list(rows[t])
        if len(row) != m:
            raise WrongOutDegree(f"arrival {t} has {len(row)} targets, expected {m}")
        flat[(t - 2) * m : (t - 1) * m] = row
    extra = seen - set(range(2, n + 1))
    if extra:
        raise MissingRow(f"unexpected arrival labels {sorted(extra)}")
    return AttachmentLog(n, m, flat)


# ---------------------------------------------------------------------------
# PALOG v1 text format
# ---------------------------------------------------------------------------

# Both directions work a fixed block at a time, so their temporaries stay a
# few MB at any n.
_FORMAT_BLOCK_ROWS = 16_384
_PARSE_BLOCK_BYTES = 1 << 17
# Longer tokens are rejected: every value that fits is below 10**18 < 2**63.
_MAX_TOKEN_CHARS = 18

_HEADER = re.compile(
    rb"PALOG[ \t]+v1[ \t]+([nm])=([+-]?[0-9]+)[ \t]+([nm])=([+-]?[0-9]+)[ \t]*"
)
# The text's leading blanks and line breaks, and a block's line breaks.
_LEADING_BLANKS = re.compile(r"[ \t\r\n]*")
_LINE_BREAK_TEXT = re.compile(r"[\r\n]")
_LINE_BREAK = re.compile(rb"[\r\n]")


def _digit_words() -> np.ndarray:
    """Three tables of the 10**4 four-digit groups as four ASCII bytes each,
    read as uint32: zero-padded; with leading zeros as NUL bytes (0 all NUL);
    and the same but with 0 as "0"."""
    words = np.empty((3, 10**4, 4), dtype=np.uint8)
    padded = words[0].reshape(10, 10, 10, 10, 4)
    ascii_digits = np.arange(48, 58, dtype=np.uint8)
    for place in range(4):
        padded[..., place] = ascii_digits.reshape((10,) + (1,) * (3 - place))
    words[1] = words[0]
    for place in range(4):  # a group below 10**(3 - place) has a leading zero there
        words[1, : 10 ** (3 - place), place] = 0
    words[2] = words[1]
    words[2, 0, 3] = 48
    return words.view(np.uint32).ravel()


def _digit_masks() -> np.ndarray:
    """``[k, d]``: for a token of d digits, the low nibble of each byte of the
    k-th 8-byte word before its end that holds one of its digits."""
    kept = [
        [min(max(d - 8 * k, 0), 8) for d in range(_MAX_TOKEN_CHARS + 1)]
        for k in range((_MAX_TOKEN_CHARS + 7) // 8)
    ]
    return np.array(
        [[0x0F0F0F0F0F0F0F0F >> 8 * (8 - c) << 8 * (8 - c) for c in row] for row in kept],
        dtype=np.uint64,
    )


_GROUP = 10**4
_DIGIT_WORDS = _digit_words()
_SEPARATOR_WORDS = np.frombuffer(b" \0\0\0\n\0\0\0", dtype=np.uint32)
_DIGIT_MASKS = _digit_masks()
# (shift, mask) of the three SWAR steps: byte pairs, 16-bit pairs, halves.
_SWAR_STEPS = ((8, 0x00FF00FF00FF00FF), (16, 0x0000FFFF0000FFFF), (32, 0xFFFFFFFF))


def format_palog(g: AttachmentLog) -> str:
    return b"".join(_palog_blocks(g)).decode("ascii")


def _palog_blocks(g: AttachmentLog):
    """The PALOG v1 text of ``g`` as ASCII bytes: the header, then one piece
    per block of arrival lines."""
    n, m = g.n, g.m
    yield f"{PALOG_MAGIC} n={n} m={m}\n".encode("ascii")
    targets = g.targets.reshape(n - 1, m)
    for lo in range(2, n + 1, _FORMAT_BLOCK_ROWS):
        hi = min(lo + _FORMAT_BLOCK_ROWS, n + 1)
        table = np.empty((hi - lo, m + 1), dtype=np.int64)
        table[:, 0] = np.arange(lo, hi)
        table[:, 1:] = targets[lo - 2 : hi - 2]
        yield _format_rows(table)


def _format_rows(table: np.ndarray) -> bytes:
    """One line per row of a 2-D array of non-negative int64 values: the
    values in decimal, separated by single spaces, each line ending in LF.

    Each value is cut into as many base-10**4 groups as the largest value
    needs, and each group becomes a four-byte word from ``_DIGIT_WORDS``.
    Groups above a value's leading one are all NUL, its leading group
    writes its leading zeros as NUL, and deleting every NUL leaves the text.
    """
    rows, cols = table.shape
    top, groups = int(table.max(initial=0)), 1
    while top >= _GROUP**groups:
        groups += 1
    words = np.empty((rows, cols, groups + 1), dtype=np.uint32)
    words[:, :, groups] = _SEPARATOR_WORDS[0]
    words[:, -1, groups] = _SEPARATOR_WORDS[1]
    # A group reads the padded table while a higher group is nonzero, else
    # the table at offset ``leading``; only the last group writes 0 as "0".
    rest, leading = table, 2 * _GROUP
    for j in range(groups - 1, 0, -1):
        higher = rest // _GROUP
        words[:, :, j] = _DIGIT_WORDS[rest - higher * _GROUP + leading * (higher == 0)]
        rest, leading = higher, _GROUP
    words[:, :, 0] = _DIGIT_WORDS[rest + leading]
    return words.tobytes().translate(None, b"\0")


def parse_palog(text: str) -> AttachmentLog:
    """Parse PALOG v1 text (grammar in the README).

    Checks run in this order, and the per-line ones report the first
    offending line: the header and an empty input (``PalogError``), the
    number of arrival lines (``MissingRow``); then per line an unparsable
    token (``PalogError``), a label other than the next arrival
    (``MissingRow``), a row without exactly m targets (``WrongOutDegree``);
    last a negative target (``PalogError``) or a target >= its arrival
    (``TargetTooLarge``).

    The arrival lines are read a block at a time: each block is encoded as
    ASCII, with every other character as "?" so the tokenizer rejects its
    line, then tokenized and its lines checked, and its targets go straight
    into the log's targets array, so no other array spans the text.  The
    first failed line check is kept while the remaining lines are only
    counted, since a wrong line count is reported first.  At n = 1e5, m = 3
    the tracemalloc peak is the 2.4 MB of targets and one block's
    temporaries, 5.8 MB in all, where tokenizing the whole text at once took
    12.1 MB.
    """
    start = _LEADING_BLANKS.match(text).end()
    if start == len(text):
        raise PalogError("empty PALOG input")
    brk = _LINE_BREAK_TEXT.search(text, start)
    body = brk.start() if brk else len(text)
    n, m = _parse_header(text[start:body].encode("ascii", errors="replace"))
    # Each line of m + 1 tokens takes 2m + 1 characters after a line break.
    # When n - 1 of them do not fit, some check below fails, so a huge n is
    # never allocated.
    fits = (n - 1) * (2 * m + 2) <= len(text) - body
    targets = np.empty((n - 1) * m, dtype=np.int64) if fits else None
    rows, error = 0, None
    for block in _blocks(text, body):
        starts, first, bad, values = _tokenize_block(np.frombuffer(block, dtype=np.uint8))
        lines = len(first)
        if error is None:
            error = _line_error(block, m, rows, starts, first, bad, values)
            if error is None and fits and rows + lines < n:
                out = targets[rows * m : (rows + lines) * m].reshape(lines, m)
                out[...] = values.reshape(lines, m + 1)[:, 1:]
        rows += lines
    if rows != n - 1:
        raise MissingRow(f"expected {n - 1} arrival lines, found {rows}")
    if error is not None:
        raise error
    return AttachmentLog(n, m, targets)


def _parse_header(line: bytes) -> tuple[int, int]:
    match = _HEADER.fullmatch(line)
    if match is None or match[1] == match[3]:
        raise PalogError(f"bad PALOG header: {line.decode('ascii')!r}")
    fields = {match[1]: int(match[2]), match[3]: int(match[4])}
    n, m = fields[b"n"], fields[b"m"]
    if n < 1 or m < 1:
        raise PalogError(f"bad PALOG header values n={n}, m={m}")
    return n, m


def _blocks(text: str, pos: int):
    """``text[pos:]``, which starts at a line break, as consecutive ASCII
    blocks of about ``_PARSE_BLOCK_BYTES``.  Blocks end just after an LF, or
    after a CR where no LF is near, so no line is split; a line longer than
    a block ends its own block."""
    while pos < len(text):
        end = len(text)
        if end - pos > _PARSE_BLOCK_BYTES:
            cut = pos + _PARSE_BLOCK_BYTES
            end = text.rfind("\n", pos, cut) + 1 or text.rfind("\r", pos, cut) + 1
            if not end:  # one line longer than a block
                brk = _LINE_BREAK_TEXT.search(text, cut)
                end = brk.end() if brk else len(text)
        yield text[pos:end].encode("ascii", errors="replace")
        pos = end


def _line_error(block: bytes, m: int, done: int, starts, first, bad, values):
    """The error of a block's first offending line, or None when every line
    is a well-formed arrival line; ``done`` lines came before the block."""
    lines = len(first)
    counts = np.diff(first, append=len(values))
    labels = values[first]
    expect = np.arange(done + 2, done + lines + 2, dtype=np.int64)
    offending = bad | (labels != expect) | (counts != m + 1)
    if not offending.any():
        return None
    i = int(np.argmax(offending))
    if bad[i]:
        at = int(starts[first[i]])
        end = _LINE_BREAK.search(block, at)
        line = block[at : end.start() if end else len(block)].decode("ascii")
        return PalogError(f"unparsable arrival line: {line!r}")
    if labels[i] != expect[i]:
        return MissingRow(f"arrival line {labels[i]} where {expect[i]} was expected")
    return WrongOutDegree(f"arrival {expect[i]} has {counts[i] - 1} targets, expected {m}")


def _tokenize_block(b: np.ndarray):
    """Tokenize whole lines of bytes, the first of which starts at ``b[0]``.

    A token is a maximal run of bytes other than space, tab, CR and LF.  It
    is well formed when it is an optional sign and then ASCII digits, 18
    characters at most.  Returns every token's first byte offset, the index
    of each line's first token, whether each line holds a malformed token,
    and every token's value (meaningless for a malformed one).
    """
    size = len(b)
    # Every byte that is not a digit, in one pass (below "0" wraps around):
    # the separators and, in well-formed text, nothing else.
    at = np.flatnonzero((b - 48) > 9)
    byte = b[at]
    brk = (byte == 10) | (byte == 13)
    sep = brk | (byte == 32) | (byte == 9)
    odd = None  # the signs and stray bytes
    if not sep.all():
        odd = at[~sep]
        at, brk = at[sep], brk[sep]
    # A token fills each gap wider than one byte between neighbouring
    # separators, counting one just before the block and one at its end.
    edges = np.empty(len(at) + 2, dtype=np.int64)
    edges[0], edges[1:-1], edges[-1] = -1, at, size
    gap = np.flatnonzero(np.diff(edges) > 1)
    # A line's first token is the first after a line break, and the block
    # starts a line.  The separators at[gap[k-1]:gap[k]] lie between tokens
    # k-1 and k; in canonical text that is one separator each, and slices
    # take the place of gathers.
    tokens = len(gap)
    is_first = np.empty(tokens, dtype=bool)
    is_first[:1] = True
    if tokens and gap[-1] - gap[0] == tokens - 1:
        gap = slice(gap[0], gap[-1] + 1)
        is_first[1:] = brk[gap.start : gap.stop - 1]
    else:
        breaks = np.zeros(len(brk) + 1, dtype=np.int64)
        np.cumsum(brk, out=breaks[1:])
        is_first[1:] = np.diff(breaks[gap]) > 0
    first = np.flatnonzero(is_first)
    starts = edges[:-1][gap] + 1
    ends = edges[1:][gap]

    # Malformed: a byte other than a digit or a sign, a sign anywhere but
    # before a token's first digit, or a token too long to hold.  Only a
    # block holding such a byte or token is searched.
    digits = ends - starts
    bad = np.zeros(len(first), dtype=bool)
    signed = minus = None
    if odd is not None or int(digits.max(initial=0)) > _MAX_TOKEN_CHARS:
        bad_tokens = [np.flatnonzero(digits > _MAX_TOKEN_CHARS)]
        if odd is not None:
            token = np.searchsorted(starts, odd, side="right") - 1
            odd_byte = b[odd]
            after = np.minimum(odd + 1, size - 1)
            placed = ((odd_byte == 43) | (odd_byte == 45)) & (odd == starts[token])
            placed &= (odd + 1 < ends[token]) & ((b[after] - 48) < 10)
            bad_tokens.append(token[~placed])
            signed, minus = token[placed], odd_byte[placed] == 45
        bad[np.searchsorted(first, np.concatenate(bad_tokens), side="right") - 1] = True
        np.minimum(digits, _MAX_TOKEN_CHARS, out=digits)
        if signed is not None:
            digits[signed] -= 1

    # Values, 8 digits per word (SWAR, "SIMD within a register").  The 8
    # bytes that end k*8 bytes before a token's end, read as a little-endian
    # uint64, hold digits with the most significant at the lowest byte.
    # Masking keeps the token's digits, not the bytes before them or its
    # sign, as 0..9 in their bytes.  Three multiply-shift steps then combine
    # neighbouring bytes, byte pairs and halves into the number: multiplying
    # by 1 + 10**c * 2**s adds 10**c times each lower part to the part above
    # it, and a right shift by s brings that sum down.
    # 24 leading bytes put the three words before any token's end in bounds;
    # ``words[i]`` is the 8 bytes from ``padded[i]``, one word per offset.
    padded = np.empty(size + 24, dtype=np.uint8)
    padded[:24] = 0
    padded[24:] = b
    words = np.ndarray((size + 17,), dtype="<u8", buffer=padded, strides=(1,))
    for k in range(max(1, (int(digits.max(initial=0)) + 7) // 8)):
        w = np.take(words, ends + (16 - 8 * k))
        w &= np.take(_DIGIT_MASKS[k], digits)
        for shift, mask in _SWAR_STEPS:
            w *= np.uint64(1 + (10 ** (shift // 8) << shift))
            w >>= np.uint64(shift)
            w &= np.uint64(mask)
        if k == 0:
            values = w.view(np.int64)
        else:
            w *= np.uint64(10 ** (8 * k))
            values += w.view(np.int64)
    if signed is not None:
        values[signed[minus]] *= -1
    return starts, first, bad, values


def save_palog(g: AttachmentLog, path) -> None:
    with open(path, "wb") as fh:
        fh.writelines(_palog_blocks(g))


def load_palog(path) -> AttachmentLog:
    """``parse_palog`` of a file read one character per byte, so a file that
    is not text is a ``PalogError``.  Latin-1 keeps a byte above 0x7F one
    character, which its block reads as "?", and the text one byte per
    character, where a U+FFFD would make it two bytes per character."""
    with open(path, "rb") as fh:
        text = fh.read().decode("latin-1")
    return parse_palog(text)


# ---------------------------------------------------------------------------
# Degree statistics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DegreeTailCounts:
    """Counts of vertices with degree strictly greater than k, k >= m.

    ``tail[j]`` is the count for ``k = m + j``; entries past the maximum
    realized degree are zero and not stored.
    """

    n: int
    m: int
    upto: int
    degrees: np.ndarray
    tail: np.ndarray

    def n_gt(self, k: int) -> int:
        if k < self.m:
            raise DomainError(f"tail counts are defined for k >= m = {self.m}")
        j = k - self.m
        return int(self.tail[j]) if j < len(self.tail) else 0

    @property
    def total_excess(self) -> int:
        return int(self.tail.sum())


def _tail_from_degrees(degrees: np.ndarray, m: int) -> np.ndarray:
    # tail[j] = #{v : d(v) > m+j}; suffix-sum of the degree histogram.
    counts = np.bincount(degrees - m)
    above = counts[::-1].cumsum()[::-1]
    # above[i] = #{d >= m+i}: keep above[j+1] = #{d > m+j}, not above[0] (all)
    return above[1:].astype(np.int64)


def _runs(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """First slot and length of each run of equal values in a sorted array."""
    first = np.ones(len(values), dtype=bool)
    np.not_equal(values[1:], values[:-1], out=first[1:])
    start = np.flatnonzero(first)
    return start, np.diff(start, append=len(values))


def degree_tail_counts(g: AttachmentLog, upto: int | None = None) -> DegreeTailCounts:
    """Tail counts of the prefix graph on ``0..upto``."""
    t = g.n if upto is None else upto
    if not 1 <= t <= g.n:
        raise DomainError(f"prefix time {t} out of range 1..{g.n}")
    deg = g.degrees(upto=t)
    return DegreeTailCounts(n=g.n, m=g.m, upto=t, degrees=deg, tail=_tail_from_degrees(deg, g.m))


def window_tail_diff(g: AttachmentLog, lo: int, hi: int) -> np.ndarray:
    """Tail-count increments N_{>k}(g_hi) - N_{>k}(g_{lo-1}), k = m, m+1, ...

    The degree side of the likelihood block of arrivals ``lo..hi``; for
    ``lo = 1`` nothing is subtracted (these are the tail counts of ``g_hi``),
    and an empty window (``lo = hi + 1``) gives zeros.  The array is as long
    as the tail of ``g_hi``, up to its largest degree.  It is computed once
    per window and log (the log's memo keeps it) and is read-only: writing
    to it raises ``ValueError``, so no caller can change what the next one
    reads.

    Only the vertices the window's edges hit can change their tail counts:
    such a vertex moves from its degree d_pre before the window (m if it is
    born inside it) to d_post after it, which adds one to every k in
    [d_pre, d_post).  d_post is read from the degrees at ``hi`` (the cached
    final degrees when ``hi = n``) and d_pre is d_post minus the vertex's
    hits in the window.  When the window has fewer edges than the prefix
    before it, those hits come from one sort of the window's targets, so a
    late window costs O(L log L) in its L edges; otherwise every vertex
    takes part, with d_pre read from the degrees at ``lo - 1``.
    """
    if not (1 <= lo <= hi + 1 and hi <= g.n):
        raise DomainError(f"window ({lo}, {hi}) out of range 1..{g.n}")
    return g._memoized(("window_tail_diff", lo, hi), lambda: _window_tail_diff(g, lo, hi))


def _window_tail_diff(g: AttachmentLog, lo: int, hi: int) -> np.ndarray:
    n, m = g.n, g.m
    t = max(hi, 1)
    deg = g._final_degrees() if t == n else g.degrees(upto=t)
    if lo == 1:
        diff = _tail_from_degrees(deg, m)
    else:
        start = (lo - 2) * m
        hits = g.targets[start : (t - 1) * m]
        if len(hits) < start:
            hits = np.sort(hits)
            run, count = _runs(hits)
            post = deg[hits[run]]
            pre = post - count
        else:
            post = deg
            pre = np.full(len(deg), m, dtype=np.int64)
            before = g.degrees(upto=lo - 1)
            pre[: len(before)] = before
        size = int(deg.max()) - m + 1
        moves = np.bincount(pre - m, minlength=size)
        moves -= np.bincount(post - m, minlength=size)
        diff = np.cumsum(moves[:-1])
    diff.setflags(write=False)
    return diff


def substep_degrees(g: AttachmentLog, t_lo: int = 2) -> np.ndarray:
    """Degrees seen by each attachment from arrival ``t_lo`` on.

    Returns, for every sub-step (t, i) with t in [t_lo, n] in order, the degree
    of the chosen target just before the edge was added.  Only the L edges
    from arrival ``t_lo`` on are read: they are ranked by one sort of the
    integer keys ``target << b | position`` (positions below 2**b), so the
    edges that hit one target form a run of slots in attachment order.  A target hit h times in that
    run had its final degree minus h before the run's first edge (``m`` for
    a vertex born at or after ``t_lo``), and each later edge of the run saw
    one more.
    """
    if not 2 <= t_lo <= g.n + 1:
        raise DomainError(f"t_lo {t_lo} out of range 2..{g.n + 1}")
    tl = g.targets[(t_lo - 2) * g.m :]
    size = len(tl)
    # Targets are below n and positions below L <= 2**b < 2L, so every key
    # is below 2nL <= 2n*n*m: that stays under 2**63 for every log whose
    # targets array is smaller than 16 GB (n*m < 2e9 edges at m = 1, more
    # at larger m).
    bits = max(size - 1, 1).bit_length()
    keys = np.left_shift(tl, bits)
    keys |= np.arange(size, dtype=np.int64)
    keys.sort()
    position = keys & ((1 << bits) - 1)
    np.right_shift(keys, bits, out=keys)  # sorted targets
    run, hits = _runs(keys)
    # degree before the run's first edge, minus that edge's slot
    base = g._final_degrees()[keys[run]]
    base -= hits
    base -= run
    del keys, run  # at most three L-length arrays are alive from here on
    seen = np.repeat(base, hits)
    seen += np.arange(size, dtype=np.int64)  # plus the slot: the degree each edge saw
    out = np.empty_like(seen)
    out[position] = seen
    return out


# ---------------------------------------------------------------------------
# Relabelable late vertices and permutation application
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoldSet:
    """Late vertices that can be permuted among themselves without leaving
    the attachment support.

    A member v > tau_prime has minimal degree m, all its children at or
    before tau_prime, and is the only parent of each child arriving after
    tau_prime.  Swapping the labels of two such vertices rewires nothing
    visible to the rest of the graph.
    """

    tau_prime: int
    members: np.ndarray  # sorted int64 labels

    @property
    def size(self) -> int:
        return int(self.members.shape[0])

    def __contains__(self, v: int) -> bool:
        i = int(np.searchsorted(self.members, v))
        return i < self.size and int(self.members[i]) == int(v)


def bold_vertices(g: AttachmentLog, tau_prime: int) -> BoldSet:
    """Extract the relabelable late-vertex set for cutoff ``tau_prime``.

    Only the arrivals after ``tau_prime`` are read (for ``tau_prime = 0``
    that includes vertex 1, whose row is its m base edges to 0).  Every edge
    into a vertex v > tau_prime comes from one of them, and so does every
    edge that makes a vertex a late parent.  So v is a member exactly when
    no late edge hits v and each target of v is at most ``tau_prime`` and
    has no late parent but v.  One sort of the late edges' keys
    ``target * (n+2) + parent`` gives the distinct (target, late parent)
    pairs grouped by target; a parent loses when one of its pairs has a
    target after ``tau_prime`` or shares its target with another parent.
    """
    n, m = g.n, g.m
    if not 0 <= tau_prime < n:
        raise DomainError(f"tau_prime {tau_prime} out of range 0..{n - 1}")
    late = g.targets[max(tau_prime - 1, 0) * m :]
    if tau_prime == 0:
        late = np.concatenate((np.zeros(m, dtype=np.int64), late))
    cand = np.arange(tau_prime + 1, n + 1, dtype=np.int64)
    keys = np.multiply(late, n + 2)
    keys.reshape(-1, m)[...] += cand[:, None]
    keys.sort()
    target, parent = np.divmod(keys[_runs(keys)[0]], n + 2)
    del keys
    shared = np.zeros(len(target), dtype=bool)
    same = target[1:] == target[:-1]
    shared[1:] |= same
    shared[:-1] |= same
    hit_late = target > tau_prime
    ok = np.ones(len(cand), dtype=bool)
    ok[parent[hit_late | shared] - (tau_prime + 1)] = False
    ok[target[hit_late] - (tau_prime + 1)] = False  # late in-edges
    return BoldSet(tau_prime=tau_prime, members=cand[ok])


def apply_permutation(g: AttachmentLog, perm) -> AttachmentLog:
    """Relabel the graph by a permutation of ``0..n`` and re-sort arrivals.

    The result is a valid log whenever the permutation only moves labels in
    ``bold_vertices(g, tau_prime)`` for some cutoff; for an arbitrary
    permutation the relabeled graph may have an upward arrow, which raises
    ``SupportViolation``.
    """
    n, m = g.n, g.m
    p = np.asarray(perm, dtype=np.int64)
    if p.shape != (n + 1,) or not np.array_equal(np.sort(p), np.arange(n + 1)):
        raise ValueError("perm must be a permutation of 0..n")
    if p[0] != 0:
        raise SupportViolation("label 0 must keep out-degree zero")
    src = np.concatenate(
        (np.full(m, 1, dtype=np.int64), np.repeat(np.arange(2, n + 1, dtype=np.int64), m))
    )
    dst = np.concatenate((np.zeros(m, dtype=np.int64), g.targets))
    new_src = p[src]
    new_dst = p[dst]
    if (new_dst >= new_src).any():
        raise SupportViolation("permutation creates an arrow toward a larger label")
    order = np.argsort(new_src, kind="stable")
    flat = new_dst[order][m:]  # drop the implicit arrival-1 row (all zeros)
    return AttachmentLog(n, m, flat, validate=False)
