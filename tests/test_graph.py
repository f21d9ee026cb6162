import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pacp import (
    AttachmentLog,
    apply_permutation,
    bold_vertices,
    degree_tail_counts,
    from_rows,
    format_palog,
    parse_palog,
    simulate,
    DeltaProfile,
)
from pacp.errors import (
    MissingRow,
    PalogError,
    SupportViolation,
    TargetTooLarge,
    WrongOutDegree,
)
from pacp.graph import substep_degrees
from pacp.reduction import kernel_sample

from helpers import replay_substep_degrees


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


def test_tail_counts_split_in_degrees():
    g = from_rows(4, 2, {2: [0, 1], 3: [0, 0], 4: [3, 1]})
    tc = degree_tail_counts(g, split_at=2)
    # the random in-edges split by era always sum to the excess degree
    assert (tc.h_le + tc.h_gt).tolist() == (tc.degrees - 2).tolist()
    assert tc.h_le.tolist() == [1, 1, 0, 0, 0]  # arrival-2 hits only
    assert tc.h_gt.tolist() == [2, 1, 0, 1, 0]


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


def test_substep_degrees_replay():
    g = from_rows(3, 1, {2: [0], 3: [0]})
    assert substep_degrees(g, 2).tolist() == [1, 2]
    g2 = from_rows(3, 2, {2: [0, 0], 3: [2, 2]})
    assert substep_degrees(g2, 2).tolist() == [2, 3, 2, 3]
    assert substep_degrees(g2, 3).tolist() == [2, 3]


@st.composite
def attachment_logs(draw):
    n = draw(st.integers(1, 60))
    m = draw(st.integers(1, 3))
    targets = [draw(st.integers(0, t - 1)) for t in range(2, n + 1) for _ in range(m)]
    return AttachmentLog(n, m, np.asarray(targets, dtype=np.int64))


@settings(deadline=None)
@given(attachment_logs())
def test_substep_degrees_matches_per_edge_replay(g):
    for t_lo in range(2, g.n + 2):
        assert substep_degrees(g, t_lo).tolist() == replay_substep_degrees(g, t_lo).tolist()
