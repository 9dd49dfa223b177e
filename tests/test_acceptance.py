"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with `python3 -m pytest tests/test_acceptance.py -v -s` to see every
"criterion N: PASS/FAIL - ..." line; without -s the lines still appear for
any failing criterion.

Criterion 4 is expected to FAIL, deliberately.  Two small-case rows of the
embedded optimum table ((m=4, S={1,3}, t=1) and (m=5, S={0,2,4}, t=1)) have
an assignment-minimized acyclic bound strictly below the true optimum
(2 < 3 and 3 < 4, both assignment-exhaustive and cross-checked by brute
force).  The acyclic bound simply is not tight there; the schemes still
achieve the table values, which is asserted.  Weakening the check would
hide a real mathematical fact, so the failure stands and is documented.
"""

import itertools
import time

from picod.bounds import (
    MAIS_EXACT,
    best_chain_bound,
    closed_form_length,
    full_report,
    min_mais_lower_bound,
)
from picod.coding import build_partition_scheme, optimal_partition
from picod.errors import SearchOverflow
from picod.hypergraph import (
    circular_arc_scheme_with_trace,
    has_one_factor,
    network_topology,
)
from picod.instance import build_complete_s
from picod.oracles import (
    block_cover_impossibility,
    random_averaging_suite,
    sweep_intersection_families,
)
from picod.verifier import is_valid, min_linear_length_exhaustive

from util import (
    brute_best_partition_cost,
    random_arc_instance,
    random_instance,
    seeded,
)


def announce(num, ok, detail):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_01_smallest_critical_case():
    start = time.perf_counter()
    inst = build_complete_s(3, 1, {1})
    lower, _ = min_mais_lower_bound(inst)
    cost = optimal_partition(3, 1, {1}).total_cost
    exhaustive = min_linear_length_exhaustive(inst, 2)
    assert exhaustive is not None
    closed = closed_form_length(3, 1, {1})
    assert closed is not None
    elapsed = time.perf_counter() - start
    values = (lower, cost, exhaustive[0], closed[0])
    ok = values == (2, 2, 2, 2) and elapsed < 1.0
    announce(1, ok, f"m=3 S={{1}} t=1: lower/partition/exhaustive/closed = "
                    f"{values} in {elapsed:.2f}s")
    assert values == (2, 2, 2, 2)
    assert elapsed < 1.0


def test_criterion_02_consecutive_band_sweep():
    start = time.perf_counter()
    cases = 0
    capped = []
    for m in range(1, 6):
        for t in (1, 2):
            if t > m:
                continue
            for lo in range(0, m - t + 1):
                for hi in range(lo, m - t + 1):
                    sizes = set(range(lo, hi + 1))
                    cases += 1
                    expect = min(hi + t, m - lo)
                    closed = closed_form_length(m, t, sizes)
                    assert closed is not None and closed[0] == expect
                    plan = optimal_partition(m, t, sizes)
                    assert plan.total_cost == expect
                    code = build_partition_scheme(plan)
                    assert code.ell == expect
                    inst = build_complete_s(m, t, sizes)
                    assert is_valid(code, inst).valid
                    try:
                        lower, _ = min_mais_lower_bound(inst)
                    except SearchOverflow:
                        capped.append((m, t, lo, hi))
                        assert m == 5, "the m <= 4 sub-sweep must fit the node budget"
                        continue
                    assert lower == expect, (m, t, sizes, lower, expect)
    elapsed = time.perf_counter() - start
    ok = cases == 55 and elapsed < 600.0
    announce(2, ok, f"{cases} consecutive bands, closed form = acyclic bound "
                    f"= verified scheme length on all {cases - len(capped)} "
                    f"in-budget cases; {len(capped)} over the node budget "
                    f"(all m=5, reported) "
                    f"in {elapsed:.1f}s")
    assert cases == 55
    assert elapsed < 600.0


def test_criterion_03_two_transmission_margin_rows():
    start = time.perf_counter()
    details = []
    for m, t, sizes in ((6, 1, {0, 1, 4, 5}), (5, 2, {0, 3})):
        inst = build_complete_s(m, t, sizes)
        report = full_report(inst)
        assert report.closed_form is not None
        assert report.closed_form[0] == 4
        assert report.achieved == 4
        assert is_valid(report.witness_code, inst).valid
        chain = best_chain_bound(inst, report.witness_assignment)
        assert chain.value >= report.closed_form[0]
        assert report.lower_bound_method == MAIS_EXACT
        assert report.lower_bound == 4
        details.append(
            f"m={m} S={sorted(sizes)} t={t}: achieved=4 chain={chain.value} "
            f"lower={report.lower_bound} ({report.lower_bound_method})"
        )
    elapsed = time.perf_counter() - start
    announce(3, True, "; ".join(details) + f" in {elapsed:.1f}s")


def test_criterion_04_small_case_table_conformance():
    # printed optimum values of every small case the formulas leave open;
    # the two t=2 rows marked `corrected` print 4 in the source table, but
    # that contradicts the covering rule the same source proves (0 and m-t
    # present, consecutive complement, hence min(m, |S|+2t-2) = 5), and the
    # toolkit's exhaustive bound, scheme, and closed form all agree on 5
    rows = [
        (4, frozenset({0, 2}), 1, 3),
        (4, frozenset({0, 2}), 2, 4),
        (4, frozenset({1, 3}), 1, 3),
        (5, frozenset({0, 3}), 1, 3),
        (5, frozenset({0, 3}), 2, 4),
        (5, frozenset({1, 4}), 1, 3),
        (5, frozenset({1, 3}), 1, 4),
        (5, frozenset({1, 3}), 2, 4),
        (5, frozenset({0, 1, 3}), 1, 4),
        (5, frozenset({0, 1, 3}), 2, 5),  # corrected
        (5, frozenset({1, 3, 4}), 1, 4),
        (5, frozenset({0, 2, 3}), 1, 4),
        (5, frozenset({0, 2, 3}), 2, 5),  # corrected
        (5, frozenset({0, 2, 4}), 1, 4),
        (5, frozenset({1, 2, 4}), 1, 4),
    ]
    start = time.perf_counter()
    gaps = []
    for m, sizes, t, table in rows:
        inst = build_complete_s(m, t, sizes)
        report = full_report(inst)
        assert report.achieved == table, (m, sorted(sizes), t)
        assert is_valid(report.witness_code, inst).valid
        assert report.lower_bound_method == MAIS_EXACT, (m, sorted(sizes), t)
        if report.lower_bound < table:
            gaps.append(f"m={m} S={sorted(sizes)} t={t}: "
                        f"acyclic bound {report.lower_bound} < optimum {table}")
    elapsed = time.perf_counter() - start
    ok = not gaps and elapsed < 60.0
    announce(4, ok,
             f"achieved length matches the table on all {len(rows)} rows, "
             f"all bounds mais-exact; acyclic-bound shortfalls: "
             f"{'; '.join(gaps) if gaps else 'none'} in {elapsed:.1f}s")
    assert elapsed < 60.0
    assert not gaps, (
        "the assignment-minimized acyclic bound is not tight on these rows "
        "(exhaustive over the full assignment space, brute-force checked): "
        + "; ".join(gaps)
    )


def test_criterion_05_one_factor_iff_single_transmission():
    start = time.perf_counter()
    checked = 0
    for m in range(1, 5):
        for r in range(1, m + 1):
            for sizes in itertools.combinations(range(m), r):
                inst = build_complete_s(m, 1, set(sizes))
                factor = has_one_factor(network_topology(inst))
                one = min_linear_length_exhaustive(inst, 2, ell_max=1)
                assert (factor is not None) == (one is not None), (m, sizes)
                checked += 1
    rng = seeded(606)
    for _ in range(50):
        inst = random_instance(rng, m_max=6, n_max=10, t=1)
        factor = has_one_factor(network_topology(inst))
        one = min_linear_length_exhaustive(inst, 2, ell_max=1)
        assert (factor is not None) == (one is not None), inst.users
        checked += 1
    elapsed = time.perf_counter() - start
    announce(5, True, f"exact cover exists iff a one-row field-2 code exists "
                      f"on all {checked} instances in {elapsed:.1f}s")
    assert checked == 76


def test_criterion_06_circular_arc_two_rows():
    start = time.perf_counter()
    rng = seeded(607)
    one_row = 0
    for _ in range(200):
        inst = random_arc_instance(rng, n_max=30, m_max=12)
        code, trace = circular_arc_scheme_with_trace(inst, tuple(range(inst.n)))
        assert code.ell <= 2
        assert is_valid(code, inst).valid
        if trace.factor is not None:
            assert code.ell == 1
            one_row += 1
    elapsed = time.perf_counter() - start
    ok = elapsed < 60.0
    announce(6, ok, f"200 random circular-arc instances served in <= 2 rows, "
                    f"{one_row} exact-cover cases used exactly 1 row, "
                    f"in {elapsed:.1f}s")
    assert elapsed < 60.0
    assert one_row > 0


def test_criterion_07_intersection_family_sweep():
    start = time.perf_counter()
    expected = {1: 1, 2: 27, 3: 2401, 4: 759375}
    totals = {}
    for s in (1, 2, 3, 4):
        summary = sweep_intersection_families(s)
        assert summary.failures == 0
        assert summary.families == expected[s]
        totals[s] = summary.families
    elapsed = time.perf_counter() - start
    ok = elapsed < 120.0
    announce(7, ok, f"witness found and re-verified per distinct family, weighted by orderings, "
                    f"counts {totals}, in {elapsed:.1f}s")
    assert elapsed < 120.0


def test_criterion_08_averaging_pair_random_suite():
    start = time.perf_counter()
    summary = random_averaging_suite(10**4, seed=20260814)
    elapsed = time.perf_counter() - start
    ok = summary.ok and elapsed < 10.0
    announce(8, ok, f"{summary.trials} random families, {summary.failures} "
                    f"failures, exact rational comparisons, in {elapsed:.1f}s")
    assert summary.trials == 10**4
    assert summary.failures == 0
    assert elapsed < 10.0


def test_criterion_09_partition_matches_brute_force():
    start = time.perf_counter()
    rng = seeded(609)
    for _ in range(100):
        m = rng.randint(2, 12)
        t = rng.randint(1, min(3, m - 1))
        k = rng.randint(1, min(6, m - t + 1))
        sizes = rng.sample(range(m - t + 1), k)
        plan = optimal_partition(m, t, sizes)
        assert plan.total_cost == brute_best_partition_cost(m, t, sizes)
    elapsed = time.perf_counter() - start
    ok = elapsed < 30.0
    announce(9, ok, f"100 random size profiles, the best uncoded prefix plus "
                    f"MDS block equals the all-set-partitions minimum, in {elapsed:.1f}s")
    assert elapsed < 30.0


def test_criterion_10_no_small_block_cover():
    start = time.perf_counter()
    summary = block_cover_impossibility(3, 1, 1, 2)
    elapsed = time.perf_counter() - start
    ok = (summary.impossible and summary.collections_checked == 8
          and elapsed < 1.0)
    announce(10, ok, f"all {summary.collections_checked} collections of "
                     f"2-element blocks over 3 messages fail some property, "
                     f"in {elapsed:.2f}s")
    assert summary.impossible
    assert summary.valid_found == 0
    assert summary.collections_checked == 8
    assert elapsed < 1.0
