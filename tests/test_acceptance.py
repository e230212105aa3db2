"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The heavyweight recognizer-vs-exhaustive-scan sweep (every labeled
biconnected graph up to six vertices plus 10,000 seeded random biconnected
graphs at seven and at eight vertices) runs once per session and feeds the
criteria that quantify over it.  Expect a few minutes of runtime; run with
``pytest tests/test_acceptance.py -v -s`` to watch the per-criterion lines.
"""

import random
import time
from itertools import combinations

import networkx as nx
import pytest

from outerfan import oracle
from outerfan.circular import check_outer_fan_planar, distinct_drawings
from outerfan.graph import build_graph, complete_graph, complete_two_hop_graph
from outerfan.recognizer import is_complete_2hop, recognize
from outerfan.reduction import (
    ThreePartitionInstance,
    WitnessDrawing,
    count_vertical_crossings_per_path,
    generate_instance,
    route_witness,
    validate_witness,
)
from outerfan.sweep import (
    audit_accepted,
    edge_count_violations,
    run_exhaustive_sweep,
    run_random_sweep,
)

RANDOM_SAMPLES_PER_SIZE = 10_000
SWEEP_SEED = 0

# per-criterion pass/fail lines; echoed in the terminal summary by conftest
REPORT_LINES: list[str] = []


def report(criterion: int, ok: bool, detail: str) -> bool:
    line = f"CRITERION {criterion}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    REPORT_LINES.append(line)
    return ok


@pytest.fixture(scope="session")
def sweep():
    t0 = time.time()
    exhaustive = run_exhaustive_sweep(max_n=6)
    randomized = run_random_sweep(
        sizes=(7, 8),
        samples_per_size=RANDOM_SAMPLES_PER_SIZE,
        seed=SWEEP_SEED,
    )
    elapsed = time.time() - t0
    REPORT_LINES.append(
        f"[sweep] {exhaustive.graphs_checked} exhaustive + "
        f"{randomized.graphs_checked} random graphs in {elapsed:.0f}s"
    )
    return exhaustive, randomized


def test_criterion_1_oracle_equivalence(sweep):
    exhaustive, randomized = sweep
    disagreements = exhaustive.disagreements + randomized.disagreements
    mismatches = exhaustive.embedding_mismatches + randomized.embedding_mismatches
    total = exhaustive.graphs_checked + randomized.graphs_checked
    ok = not disagreements and not mismatches
    assert report(
        1,
        ok,
        f"{total} biconnected graphs (all n<=6 plus {RANDOM_SAMPLES_PER_SIZE} random "
        f"each at n=7,8), {len(disagreements)} verdict disagreements, "
        f"{len(mismatches)} embedding-set mismatches",
    )
    assert not disagreements, disagreements[:3]
    assert not mismatches, mismatches[:3]


def test_criterion_2_k5_single_embedding():
    out = recognize(complete_graph(5))
    ok = out.accepted and out.embeddings == ((0, 1, 2, 3, 4),)
    assert report(
        2,
        ok,
        f"recognize(K5) = {out.verdict.value} with embeddings {list(out.embeddings)}",
    )
    assert ok


def test_criterion_3_edge_counts(sweep):
    exhaustive, randomized = sweep
    bad = edge_count_violations(exhaustive.accepted + randomized.accepted)
    count = sum(
        1 for rec in exhaustive.accepted + randomized.accepted if rec.triconnected_path
    )
    ok = not bad
    assert report(
        3,
        ok,
        f"{count} accepted 3-connected graphs all have m in {{2n, 3n-6}}; "
        f"{len(bad)} violations",
    )
    assert not bad, bad[:3]


def test_criterion_4_density_bound(sweep):
    exhaustive, randomized = sweep
    violations = exhaustive.density_violations + randomized.density_violations
    ofp = len(exhaustive.ofp_graphs) + len(randomized.ofp_graphs)
    ok = not violations
    assert report(
        4,
        ok,
        f"{ofp} outer-fan-planar graphs in the sweeps all satisfy m <= 5n-10; "
        f"{len(violations)} violations",
    )
    assert not violations


def test_criterion_5_complete_two_hop_path():
    worst_candidates = 0
    for n in range(5, 13):
        g = complete_two_hop_graph(n)
        t0 = time.time()
        got = is_complete_2hop(g)
        assert got is not None, f"2-hop structure missed at n={n}"
        worst_candidates = max(worst_candidates, got.raw_candidates)
        assert got.raw_candidates <= 6, (n, got.raw_candidates)
        if n <= 9:
            out = recognize(g)
            expected = oracle.enumerate_embeddings(g)
            assert out.accepted and out.embeddings == expected, (n, out.embeddings, expected)
            elapsed = time.time() - t0
            assert elapsed < 1.0, f"n={n} took {elapsed:.2f}s"
    assert report(
        5,
        True,
        f"n=5..12 recognized with <= {worst_candidates} pre-canonicalization "
        "candidates; embedding sets match the exhaustive scan for n<=9 in under 1s each",
    )


def test_criterion_6_branch_bound(sweep):
    exhaustive, randomized = sweep
    records = exhaustive.accepted + randomized.accepted
    worst = max((rec.max_live_drawings for rec in records), default=0)
    offenders = [rec for rec in records if rec.max_live_drawings > 4]
    ok = not offenders
    assert report(
        6,
        ok,
        f"reinsertion held at most {worst} live drawings across "
        f"{len(records)} accepted graphs (bound 4)",
    )
    assert not offenders, offenders[:3]


def test_criterion_7_structural_audit(sweep):
    exhaustive, randomized = sweep
    records = exhaustive.accepted + randomized.accepted
    violations = audit_accepted(records)
    audited = sum(1 for rec in records if rec.n >= 6 and rec.triconnected_path)
    ok = not violations
    assert report(
        7,
        ok,
        f"{audited} accepted 3-connected graphs with n>=6 audited: crossing long "
        f"edges have consecutive endpoints, scissors induce 4-cliques, degree-3 "
        f"4-cliques sit consecutively with the degree-3 vertex inside; "
        f"{len(violations)} violations",
    )
    assert not violations, violations[:3]


def test_criterion_8_spqr_round_trip(sweep):
    exhaustive, randomized = sweep
    failures = exhaustive.spqr_failures + randomized.spqr_failures
    total = exhaustive.graphs_checked + randomized.graphs_checked
    ok = not failures
    assert report(
        8,
        ok,
        f"{total} biconnected graphs decomposed and reconstructed exactly with all "
        f"node-kind and adjacency invariants; {len(failures)} failures",
    )
    assert not failures, failures[:3]


def test_criterion_9_reduction_fidelity():
    t0 = time.time()
    tp = ThreePartitionInstance(3, (7, 7, 7, 8, 8, 8, 8, 9, 10), 24)
    inst = generate_instance(tp)
    assert inst.params["K"] == 13
    assert len(inst.gadgets["top_beam"].cycle) == 117
    assert inst.params["path_edges"] == 102
    witness = route_witness(inst, [(0, 1, 8), (2, 3, 7), (4, 5, 6)])
    rep = validate_witness(inst, witness)
    counts = count_vertical_crossings_per_path(inst, witness)
    elapsed = time.time() - t0
    ok = rep.ok and counts == [102, 102, 102] and elapsed < 10.0
    assert report(
        9,
        ok,
        f"K=13, top beam 117, paths cross {counts} vertical edges, witness "
        f"{'valid' if rep.ok else 'invalid'}, {elapsed:.2f}s",
    )
    assert ok


def test_criterion_10_validator_soundness():
    tp = ThreePartitionInstance(3, (7, 7, 7, 8, 8, 8, 8, 9, 10), 24)
    inst = generate_instance(tp)
    witness = route_witness(inst, [(0, 1, 8), (2, 3, 7), (4, 5, 6)])
    rng = random.Random(SWEEP_SEED)
    edge_list = inst.graph.edge_list()
    crossed_verticals = [
        e
        for e, lst in witness.crossings.items()
        if lst and inst.edge_roles[e]["kind"] == "vertical"
    ]
    barrier_two_hops = [
        e for e, r in inst.edge_roles.items() if r["kind"] == "two_hop"
    ]
    non_barrier = [
        e for e, r in inst.edge_roles.items() if r["kind"] in ("path", "vertical")
    ]
    misses = 0
    for trial in range(100):
        tampered = {e: list(lst) for e, lst in witness.crossings.items()}
        if trial % 2 == 0:
            target = rng.choice(crossed_verticals)
            first = tampered[target][0]
            second = rng.choice(
                [
                    f
                    for f in edge_list
                    if not set(f) & set(first) and not set(f) & set(target)
                ]
            )
            tampered[target].append(second)
            tampered[second] = tampered.get(second, []) + [target]
            expected_kinds = {"fan_violation"}
        else:
            target = rng.choice(barrier_two_hops)
            foreign = rng.choice([f for f in non_barrier if not set(f) & set(target)])
            tampered[target] = tampered.get(target, []) + [foreign]
            tampered[foreign] = tampered.get(foreign, []) + [target]
            expected_kinds = {"barrier_crossed", "fan_violation"}
        rep = validate_witness(
            inst, WitnessDrawing({e: tuple(lst) for e, lst in tampered.items()})
        )
        localized = any(
            v.edge == target and v.kind in expected_kinds for v in rep.violations
        )
        if rep.ok or not localized:
            misses += 1
    ok = misses == 0
    assert report(
        10,
        ok,
        f"100 seeded injections (pattern-I and barrier crossings) all rejected "
        f"with a violation naming the tampered edge; {misses} misses",
    )
    assert ok


# ---------------------------------------------------------------------------
# The accept side past n = 6: maximal graphs drawn by the oracle alone
# ---------------------------------------------------------------------------


def oracle_completion(n, rng):
    """A maximal outer-fan-planar graph on n vertices, and an order drawing
    it: the vertex pairs in random order, each added while the graph keeps
    an outer-fan-planar order.  Adding edges only removes orders, so a pair
    refused once stays refused and one pass ends at a maximal graph.  The
    last order found is tried first; the oracle decides the rest."""
    pairs = list(combinations(range(n), 2))
    rng.shuffle(pairs)
    edges, order = [], tuple(range(n))
    for p in pairs:
        g = build_graph(n, edges + [p])
        if not check_outer_fan_planar(g, order).verdict:
            found = oracle.outer_fan_planar_order(g)
            if found is None:
                continue
            order = found
        edges.append(p)
    return build_graph(n, edges), order


def recognize_against_scan(g):
    """recognize(g), checked to have the oracle scan's verdict and, if it
    accepts, the scan's drawings."""
    out = recognize(g)
    scan = oracle.scan(g)
    assert out.accepted == scan.maximal, g.edge_list()
    if out.accepted:
        assert tuple(out.embeddings) == distinct_drawings(g, scan.orders), g.edge_list()
    return out


def test_oracle_completions_and_their_deletions():
    """Random maximal graphs at n = 9 and 10, from the oracle alone: the
    recognizer accepts each with the scan's drawings, and rejects each
    one-edge deletion, which is not maximal because the completion's order
    draws it with the edge put back."""
    paths = {}
    checked = 0
    for n, count in ((9, 200), (10, 30)):
        rng = random.Random(n)
        for _ in range(count):
            g, order = oracle_completion(n, rng)
            out = recognize_against_scan(g)
            assert out.accepted, g.edge_list()
            paths[out.path] = paths.get(out.path, 0) + 1
            for e in g.edge_list():
                h = build_graph(n, [f for f in g.edge_list() if f != e])
                assert not recognize(h).accepted, (g.edge_list(), e)
                checked += 1
    REPORT_LINES.append(
        f"[completions] 230 maximal graphs by path {paths}, {checked} deletions rejected"
    )
    assert paths.get("spqr", 0) >= 50 and paths.get("peel", 0) >= 50, paths


def test_every_seven_vertex_class():
    """Every biconnected graph on seven vertices up to isomorphism."""
    graphs = [
        build_graph(7, h.edges())
        for h in nx.graph_atlas_g()
        if h.number_of_nodes() == 7 and nx.is_biconnected(h)
    ]
    assert len(graphs) == 468  # OEIS A002218
    assert sum(recognize_against_scan(g).accepted for g in graphs) == 8
