import gc
import pickle
import re
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from pacp import (
    AttachmentLog,
    apply_permutation,
    bold_vertices,
    degree_tail_counts,
    from_rows,
    format_palog,
    load_palog,
    parse_palog,
    simulate,
    DeltaProfile,
)
from pacp.errors import (
    DomainError,
    MissingRow,
    PalogError,
    SupportViolation,
    TargetTooLarge,
    WrongOutDegree,
)
from pacp.graph import (
    _MEMO_ENTRIES, _PARSE_BLOCK_BYTES, _format_rows, _tokenize_block, substep_degrees,
    window_tail_diff,
)
from pacp.likelihood import _log_mult_sum
from pacp.reduction import kernel_sample

from helpers import (
    attachment_logs,
    bold_vertices_by_definition,
    bold_vertices_whole_log,
    degrees_by_prefix_bincount,
    format_palog_by_line,
    line_first_tokens_searchsorted,
    parse_palog_by_line,
    replay_substep_degrees,
    substep_degrees_from_prefix,
    window_tail_diff_two_prefixes,
)


def test_base_case_triple_edge():
    g = from_rows(1, 3, {})
    assert g.n == 1 and g.m == 3
    assert g.degrees().tolist() == [3, 3]


def test_from_rows_valid_log():
    g = from_rows(3, 1, {2: [0], 3: [1]})
    assert g.degrees().tolist() == [2, 2, 1, 1]


def test_from_rows_rejects_bad_input():
    with pytest.raises(TargetTooLarge):
        from_rows(2, 1, {2: [2]})
    with pytest.raises(WrongOutDegree):
        from_rows(2, 2, {2: [0]})
    with pytest.raises(MissingRow):
        from_rows(3, 1, {2: [0]})
    with pytest.raises(MissingRow):
        from_rows(2, 1, {2: [0], 3: [0]})
    with pytest.raises(PalogError):
        from_rows(2, 1, {2: [-1]})
    with pytest.raises(TargetTooLarge, match=r"^arrival 3 records target 5$"):
        from_rows(4, 2, {2: [0, 1], 3: [0, 5], 4: [4, 0]})


def test_tail_counts_base_graph():
    g = from_rows(1, 1, {})
    tc = degree_tail_counts(g)
    assert tc.n_gt(1) == 0
    assert tc.total_excess == 0


def test_tail_counts_star():
    g = from_rows(3, 1, {2: [0], 3: [0]})
    tc = degree_tail_counts(g)
    assert tc.degrees.tolist() == [3, 1, 1, 1]
    assert tc.n_gt(1) == 1 and tc.n_gt(2) == 1 and tc.n_gt(3) == 0


def test_excess_degree_identity_random():
    rng = np.random.default_rng(1)
    for trial in range(25):
        n = int(rng.integers(2, 60))
        m = int(rng.integers(1, 4))
        g = simulate(n, m, DeltaProfile.constant(float(rng.uniform(-0.5 * m, 3))), (10, trial))
        assert degree_tail_counts(g).total_excess == m * (n - 1)


def test_degrees_at_split_prefix_and_late_reads():
    g = from_rows(4, 2, {2: [0, 1], 3: [0, 0], 4: [3, 1]})
    assert g.degrees().tolist() == [5, 4, 2, 3, 2]
    # the prefix has fewer edges than the rest: its hits are counted
    assert g.degrees(upto=2).tolist() == [3, 3, 2]
    # the rest has fewer edges: the final degrees lose arrival 4's hits
    assert g.degrees(upto=3).tolist() == [5, 3, 2, 2]


def test_cached_degrees_cannot_be_written_through():
    g = from_rows(4, 2, {2: [0, 1], 3: [0, 0], 4: [3, 1]})
    want = (g.degrees().tolist(), g.degrees(upto=3).tolist(), window_tail_diff(g, 4, 4).tolist())
    g.degrees()[:] = 99
    degree_tail_counts(g).degrees[:] = 99
    assert g.degrees().tolist() == want[0]
    assert g.degrees(upto=3).tolist() == want[1]
    assert window_tail_diff(g, 4, 4).tolist() == want[2]
    assert substep_degrees(g, 4).tolist() == [2, 3]
    assert degree_tail_counts(g).tail.tolist() == [3, 2, 1]


def test_equality_hash_and_pickle_ignore_the_degree_cache():
    g = from_rows(4, 2, {2: [0, 1], 3: [0, 0], 4: [3, 1]})
    fresh = AttachmentLog(g.n, g.m, g.targets.copy())
    g.degrees()  # fills g's cache only
    assert g._final is not None and fresh._final is None
    assert g == fresh and hash(g) == hash(fresh)
    for log in (g, fresh):
        back = pickle.loads(pickle.dumps(log))
        assert back == g and hash(back) == hash(g) and back._final is None
        assert not back.targets.flags.writeable
        assert back.degrees().tolist() == g.degrees().tolist()
    assert len(pickle.dumps(g)) == len(pickle.dumps(fresh))


def test_degree_cache_lives_on_the_instance():
    assert "_final" in AttachmentLog.__slots__
    g = simulate(50, 2, DeltaProfile.constant(0.0), (14, 0))
    bold_vertices(g, 40)
    window_tail_diff(g, 41, 50)
    cached = weakref.ref(g._final)
    assert not cached().flags.writeable
    del g
    gc.collect()
    assert cached() is None  # nothing outside the log holds its cache


def test_window_tail_diff_is_read_only():
    g = from_rows(4, 2, {2: [0, 1], 3: [0, 0], 4: [3, 1]})
    for lo, hi in ((4, 4), (1, 4), (2, 3), (5, 4)):
        want = window_tail_diff(g, lo, hi).tolist()
        with pytest.raises(ValueError):
            window_tail_diff(g, lo, hi)[:] = 99
        assert window_tail_diff(g, lo, hi).tolist() == want


def test_memo_lives_on_the_instance_and_outside_equality_and_pickle():
    assert "_memo" in AttachmentLog.__slots__
    g = simulate(50, 2, DeltaProfile.constant(0.0), (15, 0))
    fresh = AttachmentLog(g.n, g.m, g.targets.copy())
    diff = window_tail_diff(g, 41, 50)
    log_mult = _log_mult_sum(g)
    assert window_tail_diff(g, 41, 50) is diff  # computed once
    assert g._memo is not None and fresh._memo is None
    assert window_tail_diff(fresh, 41, 50) is not diff  # each log has its own
    assert g == fresh and hash(g) == hash(fresh)
    back = pickle.loads(pickle.dumps(g))
    assert back._memo is None and back == g
    assert len(pickle.dumps(g)) == len(pickle.dumps(AttachmentLog(g.n, g.m, g.targets)))
    assert window_tail_diff(back, 41, 50).tolist() == diff.tolist()
    assert _log_mult_sum(back) == log_mult
    cached = weakref.ref(diff)
    del g, diff
    gc.collect()
    assert cached() is None  # nothing outside the log holds its memo


def test_memo_keeps_a_bounded_number_of_entries():
    g = simulate(200, 2, DeltaProfile.constant(0.5), (16, 0))
    windows = [(lo, 200) for lo in range(2, 2 + 3 * _MEMO_ENTRIES)]
    for lo, hi in windows:
        window_tail_diff(g, lo, hi)
        assert len(g._memo) <= _MEMO_ENTRIES
    assert len(g._memo) == _MEMO_ENTRIES
    # the most recently used stay; a window used again is kept over older ones
    assert list(g._memo)[-1] == ("window_tail_diff",) + windows[-1]
    kept = next(iter(g._memo))
    window_tail_diff(g, *kept[1:])
    window_tail_diff(g, 1, 200)
    assert kept in g._memo
    for lo, hi in windows:  # evicted windows are computed again, unchanged
        assert_same_array(window_tail_diff(g, lo, hi), window_tail_diff_two_prefixes(g, lo, hi))


def test_window_tail_diff_rejects_windows_that_do_not_exist():
    g = from_rows(5, 1, {2: [0], 3: [0], 4: [1], 5: [0]})
    for lo, hi in ((5, 3), (0, 5), (0, 0), (1, 6), (7, 6), (3, 1)):
        with pytest.raises(DomainError):
            window_tail_diff(g, lo, hi)
    # an empty window is a window: no increments, at the tail's length
    assert window_tail_diff(g, 6, 5).tolist() == [0, 0, 0]
    assert window_tail_diff(g, 4, 3).tolist() == [0, 0]
    assert window_tail_diff(g, 1, 5).tolist() == [2, 1, 1]


_G5 = from_rows(5, 1, {2: [0], 3: [0], 4: [1], 5: [0]})


@pytest.mark.parametrize(
    "call",
    [
        lambda: _G5.degrees(upto=0),
        lambda: _G5.degrees(upto=6),
        lambda: _G5.prefix(0),
        lambda: _G5.prefix(6),
        lambda: degree_tail_counts(_G5, 0),
        lambda: degree_tail_counts(_G5, 6),
        lambda: degree_tail_counts(_G5).n_gt(0),
        lambda: substep_degrees(_G5, 1),
        lambda: substep_degrees(_G5, 7),
        lambda: bold_vertices(_G5, -1),
        lambda: bold_vertices(_G5, 5),
    ],
    ids=[
        "degrees-0", "degrees-n+1", "prefix-0", "prefix-n+1", "tail-counts-0",
        "tail-counts-n+1", "n_gt-below-m", "substep-1", "substep-n+2", "bold--1", "bold-n",
    ],
)
def test_out_of_range_arguments_raise_domain_error(call):
    with pytest.raises(DomainError):
        call()


def test_prefix_consistency():
    g = from_rows(3, 1, {2: [0], 3: [1]})
    assert g.prefix(3) == g
    assert g.prefix(2) == from_rows(2, 1, {2: [0]})
    rng = np.random.default_rng(2)
    for trial in range(10):
        n = int(rng.integers(3, 40))
        gg = simulate(n, 2, DeltaProfile.constant(0.3), (11, trial))
        t = int(rng.integers(1, n + 1))
        assert np.array_equal(
            degree_tail_counts(gg.prefix(t)).tail, degree_tail_counts(gg, upto=t).tail
        )


def test_bold_vertices_examples():
    # late child beyond the cutoff disqualifies: relabeling 4 with another
    # minimal-degree vertex could point its edge upward
    g = from_rows(4, 1, {2: [0], 3: [1], 4: [3]})
    assert bold_vertices(g, 2).members.tolist() == []
    g2 = from_rows(4, 1, {2: [0], 3: [1], 4: [2]})
    assert bold_vertices(g2, 2).members.tolist() == [3, 4]
    # an extra hit raises the degree above m and excludes membership
    g3 = from_rows(4, 1, {2: [0], 3: [1], 4: [3]})
    assert 3 not in bold_vertices(g3, 2)


def test_bold_vertices_coparent_rule():
    # 3 and 4 share child 0, so each has the other as a late co-parent
    g = from_rows(4, 1, {2: [0], 3: [0], 4: [0]})
    assert bold_vertices(g, 2).members.tolist() == []
    # with cutoff 3 only vertex 4 is late, and 0's other parents are all early
    assert bold_vertices(g, 3).members.tolist() == [4]


def test_apply_permutation_identity_and_swap():
    g = from_rows(4, 1, {2: [0], 3: [1], 4: [2]})
    ident = np.arange(5)
    assert apply_permutation(g, ident) == g
    swap = np.array([0, 1, 2, 4, 3])
    assert apply_permutation(g, swap) == from_rows(4, 1, {2: [0], 3: [2], 4: [1]})


def test_apply_permutation_support_violation():
    g = from_rows(4, 1, {2: [0], 3: [1], 4: [3]})
    swap = np.array([0, 1, 2, 4, 3])
    with pytest.raises(SupportViolation):
        apply_permutation(g, swap)


def test_apply_permutation_preserves_multiplicity_order():
    g = from_rows(4, 2, {2: [0, 1], 3: [2, 0], 4: [1, 1]})
    perm = np.arange(5)
    assert apply_permutation(g, perm).row(3).tolist() == [2, 0]


def test_support_closure_under_kernel_permutations():
    # every kernel permutation keeps the graph inside the attachment support
    rng = np.random.default_rng(3)
    checked = 0
    while checked < 1000:
        n = int(rng.integers(4, 40))
        m = int(rng.integers(1, 4))
        delta = float(rng.uniform(-0.5 * m, 2.5))
        g = simulate(n, m, DeltaProfile.constant(delta), (12, checked))
        tau_prime = int(rng.integers(0, n - 1))
        perm = kernel_sample(g, tau_prime, rng)
        relabeled = apply_permutation(g, perm)
        AttachmentLog(relabeled.n, relabeled.m, relabeled.targets)  # re-validate
        assert np.array_equal(
            bold_vertices(relabeled, tau_prime).members, bold_vertices(g, tau_prime).members
        )
        checked += 1


def test_palog_round_trip_and_rejects():
    rng = np.random.default_rng(4)
    for trial in range(12):
        n = int(rng.integers(1, 50))
        m = int(rng.integers(1, 4))
        g = simulate(n, m, DeltaProfile.constant(0.0), (13, trial))
        g2 = parse_palog(format_palog(g))
        assert g2 == g
        assert np.array_equal(g2.degrees(), g.degrees())
    text = format_palog(from_rows(3, 1, {2: [0], 3: [1]}))
    lines = text.splitlines()
    dup = "\n".join([lines[0], lines[1], lines[1]])
    with pytest.raises(MissingRow):
        parse_palog(dup)
    swapped = "\n".join([lines[0], lines[2], lines[1]])
    with pytest.raises(MissingRow):
        parse_palog(swapped)
    with pytest.raises(PalogError):
        parse_palog("PALOG v2 n=2 m=1\n2 0")
    with pytest.raises(WrongOutDegree):  # read, never allocated from the header
        parse_palog(f"PALOG v1 n=2 m={10**30}\n2 0\n")


def test_substep_degrees_replay():
    g = from_rows(3, 1, {2: [0], 3: [0]})
    assert substep_degrees(g, 2).tolist() == [1, 2]
    g2 = from_rows(3, 2, {2: [0, 0], 3: [2, 2]})
    assert substep_degrees(g2, 2).tolist() == [2, 3, 2, 3]
    assert substep_degrees(g2, 3).tolist() == [2, 3]


# A star pins the order within an arrival: its three edges to vertex 0 see
# three successive degrees.
@example(AttachmentLog(6, 3, np.zeros(15, dtype=np.int64)))
@given(attachment_logs(m_max=5))
def test_substep_degrees_matches_per_edge_replay(g):
    for t_lo in range(2, g.n + 2):
        assert substep_degrees(g, t_lo).tolist() == replay_substep_degrees(g, t_lo).tolist()


@given(attachment_logs())
def test_palog_format_matches_per_line_oracle(g):
    text = format_palog(g)
    assert text == format_palog_by_line(g)
    assert parse_palog(text) == g


def test_palog_digit_boundaries_match_per_line_oracle():
    # Targets on each side of a change in digit count, one of them at the
    # formatter's 4-digit group boundary; arrival labels run to 100 001.
    n, m = 100_001, 2
    targets = np.random.default_rng(5).integers(0, np.arange(2, n + 1), size=(m, n - 1)).T
    boundaries = [9, 10, 9_999, 10_000, 99_999, 100_000]
    targets[[b - 1 for b in boundaries], 0] = boundaries  # arrival b + 1 may name b
    g = AttachmentLog(n, m, targets.ravel())
    text = format_palog(g)
    assert text == format_palog_by_line(g)
    assert parse_palog(text) == parse_palog_by_line(text) == g


_DIGIT_COUNTS = [0] + [v for k in range(1, 18) for v in (10**k - 1, 10**k)] + [10**18 - 1]


def test_format_rows_matches_str():
    values = _DIGIT_COUNTS
    assert _format_rows(np.array([values])) == (" ".join(map(str, values)) + "\n").encode()
    column = np.array(values)[:, None]
    assert _format_rows(column) == "".join(f"{v}\n" for v in values).encode()


def test_tokenize_reads_every_digit_count():
    # Up to 18 digits, so the digits fill one, two or three 8-byte words.
    tokens = [str(v) for v in _DIGIT_COUNTS]
    tokens += [sign + t for t in tokens if len(t) < 18 for sign in "+-"]
    tokens += [t.zfill(18) for t in tokens]
    block = np.frombuffer(("\n" + " ".join(tokens) + "\n").encode(), dtype=np.uint8)
    _, _, bad, values = _tokenize_block(block)
    assert not bad.any()
    assert values.tolist() == [int(t) for t in tokens]


def _first_tokens(text):
    """Line starts of the arrival lines of PALOG text: the tokenizer's, and
    the old search's, from the header's line break on."""
    data = text.encode()
    brk = re.search(rb"[\r\n]", data)
    if brk is None:  # the header alone: no block to tokenize
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    b = np.frombuffer(data, dtype=np.uint8)[brk.start() :]
    return _tokenize_block(b)[1], line_first_tokens_searchsorted(b)


# Layouts other than the canonical one-space, one-LF form: every gap that is
# not one byte goes through the search, and a sign right after a wide gap is
# still a well-formed token's first byte.
_LAYOUTS = [
    "PALOG v1 n=4 m=2\r\n2 0 1\r\n3 2 0\r\n4 1 3\r\n",
    "PALOG v1 n=4 m=2\n2\t0\t1\n3 \t2\t 0\n4\t\t1 3\n",
    "PALOG v1 n=4 m=2\n2   0    1\n3 2     0\n4 1   3\n",
    "PALOG v1 n=4 m=2\n\n2 0 1\n\n\n3 2 0\n \t \n4 1 3\n\n",
    "PALOG v1 n=4 m=2\n2 0 1 \n3 2 0\t\n4 1 3  \t\n  \n",
    "PALOG v1 n=4 m=2\n  +2 0   +1\n\t+3  +2 0\r\n\r\n  +4 \t+1 3",
    "PALOG v1 n=4 m=2\r2 0 1\r\r3 2 0\r \r4 1 3\r",
]


@pytest.mark.parametrize("text", _LAYOUTS)
def test_palog_line_starts_on_noncanonical_layouts(text):
    first, oracle = _first_tokens(text)
    assert first.tolist() == oracle.tolist() == [0, 3, 6]
    want = from_rows(4, 2, {2: [0, 1], 3: [2, 0], 4: [1, 3]})
    assert parse_palog(text) == parse_palog_by_line(text) == want


def test_palog_errors_name_the_first_offending_line_after_wide_gaps():
    with pytest.raises(PalogError, match=re.escape(r"unparsable arrival line: '3\t2\tx'")):
        parse_palog("PALOG v1 n=3 m=1\r\n\r\n  2  0\r\n\r\n3\t2\tx\r\n")
    with pytest.raises(MissingRow, match="arrival line 4 where 3 was expected"):
        parse_palog("PALOG v1 n=3 m=1\n\n  2 \t 0 \n \n  4 \t 0\n")
    with pytest.raises(WrongOutDegree, match="arrival 3 has 2 targets, expected 1"):
        parse_palog("PALOG v1 n=3 m=1\r\n2   0\r\n\t3  0   1\r\n")


@st.composite
def spaced_palog(draw):
    """A log's PALOG text with random separators: runs of spaces and tabs
    between tokens, LF, CRLF or CR line ends, blank lines, leading and
    trailing blanks, and optional "+" signs."""
    g = draw(attachment_logs())
    blank = st.text(alphabet=" \t", max_size=3)
    gap = st.text(alphabet=" \t", min_size=1, max_size=3)
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    lines = [f"PALOG v1 n={g.n} m={g.m}"]
    for t in range(2, g.n + 1):
        tokens = [str(t)] + [str(v) for v in g.row(t).tolist()]
        tokens = [draw(st.sampled_from(["", "+"])) + tok for tok in tokens]
        body = tokens[0]
        for tok in tokens[1:]:
            body += draw(gap) + tok
        lines += [draw(blank) for _ in range(draw(st.integers(0, 2)))]
        lines.append(draw(blank) + body + draw(blank))
    return g, end.join(lines) + draw(st.sampled_from(["", end]))


@given(spaced_palog())
def test_palog_round_trip_with_random_separators(case):
    g, text = case
    first, oracle = _first_tokens(text)
    assert first.tolist() == oracle.tolist()
    assert len(first) == g.n - 1
    assert parse_palog(text) == g


def _line(draw, lines):
    return draw(st.integers(0, len(lines) - 1))


def _drop(draw, lines, g):
    del lines[_line(draw, lines)]


def _duplicate(draw, lines, g):
    i = _line(draw, lines)
    lines.insert(draw(st.integers(0, len(lines))), lines[i])


def _swap(draw, lines, g):
    i, j = _line(draw, lines), _line(draw, lines)
    lines[i], lines[j] = lines[j], lines[i]


def _add_token(draw, lines, g):
    i = _line(draw, lines)
    lines[i] += f" {draw(st.integers(0, g.n))}"


def _set_token(draw, lines, token):
    i = _line(draw, lines)
    parts = lines[i].split(" ")
    parts[draw(st.integers(0, len(parts) - 1))] = token
    lines[i] = " ".join(parts)


def _remove_token(draw, lines, g):
    i = _line(draw, lines)
    parts = lines[i].split(" ")
    del parts[draw(st.integers(0, len(parts) - 1))]
    lines[i] = " ".join(parts)


def _bad_token(draw, lines, g):
    bad = ["x", "a1", "1.5", "1e3", "0x1", "+", "-", "--1", "+-1", "1-", "-1", "+0", "007"]
    _set_token(draw, lines, draw(st.sampled_from(bad)))


def _target_too_large(draw, lines, g):
    if len(lines) > 1:
        i = draw(st.integers(1, len(lines) - 1))
        parts = lines[i].split(" ")
        if len(parts) > 1 and parts[0].isdigit():
            too_large = int(parts[0]) + draw(st.integers(0, 3))
            parts[draw(st.integers(1, len(parts) - 1))] = str(too_large)
            lines[i] = " ".join(parts)


def _pad_token(draw, lines, g):
    """Rewrite an unsigned token as an optional sign and zero padding to
    9-19 characters: the digits span two or three 8-byte words, or the
    token is one character too long."""
    i = _line(draw, lines)
    parts = lines[i].split(" ")
    j = draw(st.integers(0, len(parts) - 1))
    if parts[j].isdigit():
        sign = draw(st.sampled_from(["", "+", "-"]))
        parts[j] = sign + parts[j].zfill(draw(st.integers(9, 19)) - len(sign))
        lines[i] = " ".join(parts)


def _blank_line(draw, lines, g):
    blank = draw(st.sampled_from(["", " ", "\t", " \t  "]))
    lines.insert(draw(st.integers(0, len(lines))), blank)


def _respace(draw, lines, g):
    i = _line(draw, lines)
    sep = draw(st.sampled_from(["\t", "  ", " \t"]))
    lines[i] = draw(st.sampled_from(["", " ", "\t"])) + lines[i].replace(" ", sep) + draw(
        st.sampled_from(["", " ", "\t "])
    )


def _header(draw, lines, g):
    n, m = g.n, g.m
    variants = [
        f"PALOG v1 m={m} n={n}", f"PALOG v1 n={n}", f"PALOG v2 n={n} m={m}",
        f"PALOG v1 n={n} m={m} x=1", f"PALOG v1 n=0 m={m}", f"PALOG v1 n={n} m=0",
        f"PALOG v1 n=-{n} m={m}", f"PALOG v1 n=+{n} m=0{m}", f"PALOG v1 n=x m={m}",
        f"PALOG v1 n={n} n={m}", f"PALOG v1 n={n}m={m}", f"PALOG v1 n=={n} m={m}",
        f"PALOG\tv1  n={n} m={m} ", f"palog v1 n={n} m={m}",
    ]
    if draw(st.booleans()):
        lines[:] = [f"PALOG v1 n={10**12} m={m}"] + lines[1:2]
    else:
        lines[0] = draw(st.sampled_from(variants))


_MUTATIONS = [
    _drop, _duplicate, _swap, _add_token, _remove_token, _bad_token, _target_too_large,
    _blank_line, _respace, _header, _pad_token,
]


@st.composite
def mutated_palog(draw):
    """PALOG text of a random log after one to three of the mutations above,
    with LF, CRLF or CR line ends."""
    g = draw(attachment_logs())
    lines = format_palog_by_line(g).split("\n")[:-1]
    for _ in range(draw(st.integers(1, 3))):
        if lines:
            draw(st.sampled_from(_MUTATIONS))(draw, lines, g)
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return end.join(lines) + draw(st.sampled_from(["", end]))


def _outcome(parse, text):
    try:
        return parse(text)
    except PalogError as exc:
        return type(exc)


# One line with two faults: the earlier class in the priority order wins.
@example("PALOG v1 n=3 m=1\n3 0 0\n2 0\n")
@example("PALOG v1 n=3 m=1\n2 x 0\n3 1\n")
@given(mutated_palog())
def test_palog_parse_matches_per_line_oracle(text):
    assert _outcome(parse_palog, text) == _outcome(parse_palog_by_line, text)


def _random_log(n, m, seed):
    arrival = np.repeat(np.arange(2, n + 1, dtype=np.int64), m)
    targets = (np.random.default_rng(seed).random(len(arrival)) * arrival).astype(np.int64)
    return AttachmentLog(n, m, targets)


def test_palog_parse_memory_is_the_targets_and_one_block():
    # Blocks go straight into the log's targets array, so the peak is the
    # targets plus one block's temporaries (about 5.8 MB here); the text,
    # its values and its line offsets are never whole-text arrays (12 MB).
    # Text with CR line ends is cut into blocks at its CRs.
    g = _random_log(10**5, 3, 1)
    for end in ("\n", "\r"):
        text = format_palog(g).replace("\n", end)
        parse_palog(text)  # warm
        tracemalloc.start()
        try:
            back = parse_palog(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert back == g
        assert peak < 3 * g.targets.nbytes


def test_palog_line_longer_than_a_block():
    wide = " " * (3 << 17)
    g = from_rows(3, 2, {2: [1, 0], 3: [2, 2]})
    text = f"PALOG v1 n=3 m=2\n2{wide}1 0\n3 2{wide}2\n"
    assert parse_palog(text) == g
    with pytest.raises(PalogError, match=re.escape("unparsable arrival line: '3 2 ")):
        parse_palog(text.replace(f"{wide}2\n", f"{wide}x\n"))


def test_palog_errors_across_blocks():
    # The text fills several blocks.  A bad line near the end is reported by
    # its own text, unless the line count is also wrong, which comes first.
    g = _random_log(60_000, 2, 2)
    lines = format_palog(g).split("\n")
    assert len("\n".join(lines[:50_000])) > 4 * _PARSE_BLOCK_BYTES
    lines[50_000] += "x"
    with pytest.raises(PalogError, match=re.escape(f"unparsable arrival line: '{lines[50_000]}'")):
        parse_palog("\n".join(lines))
    del lines[5]  # arrival 6
    with pytest.raises(MissingRow, match="expected 59999 arrival lines, found 59998"):
        parse_palog("\n".join(lines))
    with pytest.raises(MissingRow, match="arrival line 7 where 6 was expected"):
        parse_palog("\n".join(lines + ["60001 0 0"]))


def _read(read, source):
    try:
        return read(source)
    except PalogError as exc:
        return type(exc), str(exc)


def test_load_palog_reads_a_file_as_parse_palog_reads_its_text(tmp_path):
    # A file is ASCII text with each byte above 0x7F read as one "?", so its
    # log, or its error's type and message, is parse_palog's of that text.
    small = format_palog(_random_log(40, 2, 5)).encode("ascii")
    large = format_palog(_random_log(60_000, 2, 6)).encode("ascii")
    assert len(large) > 4 * _PARSE_BLOCK_BYTES
    late = large.index(b"\n50001 ")
    files = {
        "lf": small,
        "crlf": small.replace(b"\n", b"\r\n"),
        "cr": small.replace(b"\n", b"\r"),
        "blocks": large,
        "blocks_crlf": large.replace(b"\n", b"\r\n"),
        "arrival_byte": small.replace(b"\n3 ", b"\n3 \xe9", 1),
        "late_arrival_bytes": large[:late] + b" \xc3\xa9" + large[late:],
        "header_byte": small.replace(b" m=2", b" m=2\xff", 1),
        "leading_byte": b"\xa0" + small,
    }
    for name, data in files.items():
        path = tmp_path / f"{name}.palog"
        path.write_bytes(data)
        text = re.sub(rb"[\x80-\xff]", b"?", data).decode("ascii")
        expected = _read(parse_palog, text)
        assert _read(load_palog, path) == expected, name
        assert isinstance(expected, AttachmentLog) == (max(data) < 0x80), name
    assert "'3 ?" in _read(load_palog, tmp_path / "arrival_byte.palog")[1]
    assert _read(load_palog, tmp_path / "header_byte.palog") == (
        PalogError, "bad PALOG header: 'PALOG v1 n=40 m=2?'"
    )


def test_palog_grammar():
    # The per-line parser used int(), which also took non-ASCII digits,
    # digit-group underscores and other Unicode whitespace; PALOG v1 is ASCII.
    for row in ("2 \u0663", "2 0_0", "2\u00a00", "2 0\x0b", "\u0662 0"):
        with pytest.raises(PalogError) as info:
            parse_palog(f"PALOG v1 n=2 m=1\n{row}\n")
        assert type(info.value) is PalogError
    for too_long in ("0" * 18 + "1", "9" * 20):  # the second overflowed int64
        with pytest.raises(PalogError, match="unparsable"):
            parse_palog(f"PALOG v1 n=2 m=1\n2 {too_long}\n")
    assert parse_palog("PALOG v1 n=2 m=1\n2 " + "0" * 18 + "\n").row(2).tolist() == [0]


@example(AttachmentLog(1, 2, []))  # tau_prime = 0 lets vertex 1 in only when n = 1
@given(attachment_logs(m_max=5))
def test_bold_vertices_matches_definition(g):
    for tau_prime in range(g.n):
        assert bold_vertices(g, tau_prime).members.tolist() == bold_vertices_by_definition(
            g, tau_prime
        )


@given(attachment_logs())
def test_tail_counts_sum_to_excess_degree(g):
    for t in range(1, g.n + 1):
        assert int(degree_tail_counts(g, upto=t).tail.sum()) == g.m * (t - 1)


# The degree layers read only the edges after their split; each must give
# the same integers, in the same dtype and length, as the whole-log form it
# replaced.  Logs go up to m = 5; the star and the one-vertex log are the
# extremes of the degree sequence.
STAR = AttachmentLog(6, 3, np.zeros(15, dtype=np.int64))
SINGLE = AttachmentLog(1, 2, [])


def assert_same_array(got, want):
    assert got.dtype == want.dtype and got.tolist() == want.tolist()


@example(STAR)
@example(SINGLE)
@given(attachment_logs(m_max=5))
def test_degrees_match_prefix_bincount_oracle(g):
    assert_same_array(g.degrees(), degrees_by_prefix_bincount(g))
    for t in range(1, g.n + 1):
        assert_same_array(g.degrees(upto=t), degrees_by_prefix_bincount(g, t))


@example(STAR)
@example(SINGLE)
@given(attachment_logs(m_max=5))
def test_window_tail_diff_matches_two_prefix_oracle(g):
    for hi in range(1, g.n + 1):
        for lo in range(1, hi + 2):
            assert_same_array(window_tail_diff(g, lo, hi), window_tail_diff_two_prefixes(g, lo, hi))


@example(STAR)
@example(SINGLE)
@given(attachment_logs(m_max=5))
def test_substep_degrees_matches_prefix_vector_oracle(g):
    for t_lo in range(2, g.n + 2):  # includes 2, n and n + 1
        assert_same_array(substep_degrees(g, t_lo), substep_degrees_from_prefix(g, t_lo))


@example(STAR)
@example(SINGLE)
@given(attachment_logs(m_max=5))
def test_bold_vertices_matches_whole_log_oracle(g):
    for tau_prime in range(g.n):  # includes 0, 1 and n - 1
        assert_same_array(
            bold_vertices(g, tau_prime).members, bold_vertices_whole_log(g, tau_prime).members
        )
