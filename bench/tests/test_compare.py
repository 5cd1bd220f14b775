"""compare.py verdicts."""

from bench.compare import compare, verdict_end_to_end, verdict_exact, worsening


def test_worsening_respects_direction():
    assert worsening(10.0, 11.0, "lower") == 0.1
    assert worsening(10.0, 11.0, "higher") == -0.1
    assert worsening(0.0, 0.0, "lower") == 0.0


def test_end_to_end_verdicts():
    assert verdict_end_to_end(10.0, 10.5, "lower", 0.10, spread=0.02) == "ok"
    assert verdict_end_to_end(10.0, 11.5, "lower", 0.10, spread=0.02) == "worse"
    # Within the bound, but the runs' own spread is wider than the bound.
    assert verdict_end_to_end(10.0, 10.5, "lower", 0.10, spread=0.30) == "unresolved"
    # No worse than the base is ok however noisy the runs were.
    assert verdict_end_to_end(10.0, 9.0, "lower", 0.10, spread=0.30) == "ok"
    assert verdict_end_to_end(100.0, 80.0, "higher", 0.10, spread=0.0) == "worse"


def test_exact_metrics_compare_with_equality():
    assert verdict_exact(231086.0, 231086.0) == "ok"
    assert verdict_exact(231086.0, 231085.0) == "worse"


def _doc(wall, events, share, spread=0.01):
    return {"workloads": {"allpairs_dense": {
        "end_to_end": {"wall_s": {"value": wall, "unit": "s", "spread": spread, "k": 9}},
        "per_layer": {
            "netsim.engine.events": {"value": events, "unit": "count"},
            "netsim.engine.model_share": {"value": share, "unit": "ratio"},
        },
        "exact": ["netsim.engine.events"],
    }}}


def test_compare_rows():
    manifest = {"end_to_end": [
        {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.10},
    ]}
    rows = compare(_doc(2.0, 100.0, 0.3), _doc(2.5, 101.0, 0.9), manifest)
    verdicts = {metric: verdict for _, metric, _, _, _, verdict in rows}
    assert verdicts == {
        "wall_s": "worse",
        "netsim.engine.events": "worse",
        "netsim.engine.model_share": "-",
    }
    same = compare(_doc(2.0, 100.0, 0.3), _doc(2.1, 100.0, 0.4), manifest)
    assert {r[5] for r in same} == {"ok", "-"}
    # A run's uncertainty is its repeat spread over √k: 0.27 ÷ 3 is inside
    # the 0.10 bound, 0.36 ÷ 3 is not.
    assert compare(_doc(2.0, 1, 0, 0.27), _doc(2.1, 1, 0), manifest)[0][5] == "ok"
    assert compare(_doc(2.0, 1, 0, 0.36), _doc(2.1, 1, 0), manifest)[0][5] == "unresolved"
