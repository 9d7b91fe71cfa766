"""E12 (extension) — scalability through knowledge locality (§IV-B4)."""

from repro.experiments import scalability_scenario


def test_bench_e12_scalability(benchmark, report):
    points = benchmark.pedantic(
        scalability_scenario.run,
        kwargs={"seed": 41, "sizes": (1, 2, 3)},
        rounds=1,
        iterations=1,
    )
    lines = [scalability_scenario.render(points), ""]
    sample = points[-1]
    home = next(
        name for name in sample.per_node_active if name.startswith("kalis-home")
    )
    field = next(
        name for name in sample.per_node_active if name.startswith("kalis-field")
    )
    lines.append(f"{home} active: {sorted(sample.per_node_active[home])}")
    lines.append(f"{field} active: {sorted(sample.per_node_active[field])}")
    report("E12 (extension): scalability through locality", "\n".join(lines))

    # 1. Each node loads the locally-optimal set, never the union.
    home_active = set(sample.per_node_active[home])
    field_active = set(sample.per_node_active[field])
    assert "IcmpFloodModule" in home_active
    assert "ForwardingMisbehaviorModule" not in home_active
    assert "ForwardingMisbehaviorModule" in field_active
    assert "IcmpFloodModule" not in field_active

    # 2. Per-node work stays flat as the site grows: tripling the site
    # must not meaningfully raise any single node's burden.
    assert points[-1].max_node_work <= points[0].max_node_work * 1.3
    # ...while the site (and IDS fleet) actually grew.
    assert points[-1].kalis_nodes == 3 * points[0].kalis_nodes


def test_bench_transmit_fast_path(bench_json, report):
    """The frame-delivery path: transmit cost must scale like
    O(N * density), not O(N^2), from 200 to 8,000 nodes at constant
    density."""
    points = scalability_scenario.run_transmit_bench(
        seed=47, sizes=(200, 800, 8000), frames=400
    )
    report(
        "Delivery path: constant-density transmit cost",
        scalability_scenario.render_transmit(points),
    )
    bench_json(
        "transmit_fast_path",
        sizes=[point.nodes for point in points],
        frames=points[0].frames,
        wall_s=[round(point.wall_s, 3) for point in points],
        candidates_per_frame=[round(point.candidates_per_frame, 1) for point in points],
        receptions_per_frame=[round(point.receptions_per_frame, 1) for point in points],
        deliveries=[point.deliveries for point in points],
    )

    # Constant density => candidate evaluations per frame stay ~flat as
    # N quadruples (and beyond); anything worse means the cull stopped
    # being local.
    small = points[0]
    assert all(
        point.candidates_per_frame <= small.candidates_per_frame * 1.5
        for point in points
    ), "transmit cost is scaling worse than O(N * density)"
    assert all(point.deliveries == sum(point.receptions) > 0 for point in points)
