"""Tests for the analytical surrogate tier and the fidelity ladder."""

import dataclasses
import hashlib
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import SystemConfig
from repro.surrogate import (
    Calibration,
    CalibrationError,
    LadderSpec,
    RunnerCalibration,
    SurrogateEstimate,
    cross_validate,
    estimate_point,
    estimate_spec,
    pareto_front,
    parse_top_k,
    run_ladder,
    stratified_sample,
    survivor_spec,
    top_k,
)
from repro.surrogate.model import _ESTIMATORS
from repro.sweep.engine import run_sweep
from repro.sweep.spec import SWEEPS, build_sweep


def _estimates(objective_rows):
    """Build estimates keyed by index from (ticks, wire, busy) rows."""
    return [
        SurrogateEstimate(i, "gemm", float(t), float(w), float(b))
        for i, (t, w, b) in enumerate(objective_rows)
    ]


_row = st.tuples(
    st.floats(min_value=1.0, max_value=1e9),
    st.floats(min_value=0.0, max_value=1e9),
    st.floats(min_value=0.0, max_value=1.0),
)
_rows = st.lists(_row, min_size=1, max_size=24)


class TestParseTopK:
    def test_forms(self):
        assert parse_top_k(3, 10) == 3
        assert parse_top_k("12", 20) == 12
        assert parse_top_k("10%", 80) == 8
        assert parse_top_k("25%", 8) == 2

    def test_clamped_to_grid(self):
        assert parse_top_k(100, 10) == 10
        assert parse_top_k("1%", 10) == 1  # rounds to 0, clamps up

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            parse_top_k(0, 10)
        with pytest.raises(ValueError):
            parse_top_k("0%", 10)
        with pytest.raises(ValueError):
            parse_top_k("150%", 10)


class TestTopK:
    def test_exact_k_at_zero_margin_despite_ties(self):
        rows = [(10, 0, 0), (10, 0, 0), (10, 0, 0), (20, 0, 0)]
        survivors = top_k(_estimates(rows), 2, margin=0.0)
        assert [e.key for e in survivors] == [0, 1]

    def test_margin_restores_near_ties(self):
        rows = [(10, 0, 0), (10, 0, 0), (10.5, 0, 0), (20, 0, 0)]
        survivors = top_k(_estimates(rows), 1, margin=0.1)
        assert [e.key for e in survivors] == [0, 1, 2]

    def test_negative_margin_rejected(self):
        with pytest.raises(ValueError):
            top_k(_estimates([(1, 0, 0)]), 1, margin=-0.1)

    @settings(max_examples=60, deadline=None)
    @given(rows=_rows, k=st.integers(min_value=1, max_value=30))
    def test_subset_and_exact_count(self, rows, k):
        estimates = _estimates(rows)
        survivors = top_k(estimates, k, margin=0.0)
        keys = {e.key for e in estimates}
        assert all(e.key in keys for e in survivors)
        assert len(survivors) == min(k, len(estimates))

    @settings(max_examples=60, deadline=None)
    @given(
        rows=_rows,
        k=st.integers(min_value=1, max_value=30),
        lo=st.floats(min_value=0.0, max_value=0.5),
        hi=st.floats(min_value=0.0, max_value=0.5),
    )
    def test_margin_monotone(self, rows, k, lo, hi):
        lo, hi = sorted((lo, hi))
        estimates = _estimates(rows)
        small = {e.key for e in top_k(estimates, k, margin=lo)}
        large = {e.key for e in top_k(estimates, k, margin=hi)}
        assert small <= large


class TestParetoFront:
    def test_unknown_objective_rejected(self):
        with pytest.raises(ValueError):
            pareto_front(_estimates([(1, 1, 0)]), objectives=("nope",))

    def test_simple_front(self):
        rows = [(1, 10, 0), (10, 1, 0), (10, 10, 0), (20, 20, 0)]
        front = pareto_front(_estimates(rows))
        # (10, 10) is weakly but not strictly dominated; (20, 20) is.
        assert [e.key for e in front] == [0, 1, 2]

    @settings(max_examples=60, deadline=None)
    @given(rows=_rows, margin=st.floats(min_value=0.0, max_value=0.5))
    def test_matches_brute_force(self, rows, margin):
        """Survivor iff nothing margin-dominates it -- checked naively."""
        estimates = _estimates(rows)
        objectives = ("ticks", "bytes_on_wire")
        survivors = {
            e.key
            for e in pareto_front(estimates, objectives, margin=margin)
        }
        factor = 1.0 + margin
        for p in estimates:
            dominated = any(
                all(
                    q.objective(name) * factor < p.objective(name)
                    for name in objectives
                )
                for q in estimates
            )
            assert (p.key not in survivors) == dominated

    @settings(max_examples=60, deadline=None)
    @given(
        rows=_rows,
        lo=st.floats(min_value=0.0, max_value=0.5),
        hi=st.floats(min_value=0.0, max_value=0.5),
    )
    def test_margin_monotone(self, rows, lo, hi):
        lo, hi = sorted((lo, hi))
        estimates = _estimates(rows)
        small = {e.key for e in pareto_front(estimates, margin=lo)}
        large = {e.key for e in pareto_front(estimates, margin=hi)}
        assert small <= large


class TestEstimators:
    @pytest.mark.parametrize(
        "name",
        ["fig6a-mem-bandwidth", "topo-contention", "topo-p2p",
         "access-modes", "fig4-packet-grid"],
    )
    def test_spec_estimates_are_sane(self, name):
        spec = build_sweep(name)
        estimates = estimate_spec(spec)
        assert len(estimates) == len(spec.points)
        for est in estimates:
            assert est.ticks > 0
            assert est.bytes_on_wire >= 0
            assert 0.0 <= est.uplink_busy <= 1.0

    def test_vit_estimates(self):
        spec = build_sweep("fig7-transformer")
        estimates = {e.key: e for e in estimate_spec(spec)}
        assert len(estimates) == len(spec.points)
        assert all(e.ticks > 0 for e in estimates.values())
        # The large model costs more than the base model, system for
        # system -- ordering the ladder must preserve.
        for system in ("PCIe-8GB", "DevMem"):
            assert (estimates[("large", system)].ticks
                    > estimates[("base", system)].ticks)

    def test_bandwidth_ordering_preserved(self):
        """More device-memory bandwidth never estimates slower."""
        spec = build_sweep("fig6a-mem-bandwidth", size=64)
        estimates = estimate_spec(spec)
        by_bw = sorted(estimates, key=lambda e: e.key)
        ticks = [e.ticks for e in by_bw]
        assert ticks == sorted(ticks, reverse=True)

    def test_compute_override_via_roofline_sweep(self):
        spec = build_sweep("roofline")
        estimates = estimate_spec(spec)
        assert len(estimates) == len(spec.points)
        # Past the roofline knee, execution tracks compute ticks.
        by_compute = sorted(estimates, key=lambda e: e.key)
        assert by_compute[-1].ticks > by_compute[0].ticks

    def test_estimate_point_matches_spec_path(self):
        config = SystemConfig.pcie_8gb()
        est = estimate_point(config, runner="gemm", m=64, k=64, n=64)
        assert est.ticks > 0


#: sha256 over ``key|runner|ticks|bytes_on_wire|uplink_busy`` lines (the
#: floats as ``float.hex()``) of ``estimate_spec`` at default factory
#: arguments, with the point count, per registered sweep whose runner
#: has an estimator: 146 points in all.
ESTIMATE_PINS = {
    "ablation-dataflow":
        (6, "ebc26eec4f3bf17a62f2bfbd4a8b617cb16a9d0de47e4e8c3ef4dafea13f03bd"),
    "ablation-smmu":
        (5, "eb2ea426295d0cc1c9ddbedb399094506566f9f9d229d9841666d55b2d8b1512"),
    "access-modes":
        (3, "7d50fb2bd11513bd418c6ff1f5e1457d4e00f4240264fe1d85587a92ab5cff53"),
    "ext-cxl-gemm":
        (2, "41f9705ebaf6652eb72396b1d9d48719b23c78e9f30dee797a422c0783c2c5e7"),
    "ext-cxl-vit":
        (3, "8895e73aff4951c5b1eed5b9d5e38cc0c6ec8b0187cc446600e21876f8ba51a2"),
    "fig4-packet-grid":
        (35, "9e986ac6f478dc44df4c3417456d5288b9f89df846fa67117a13548736c423ab"),
    "fig5-memory":
        (12, "1de7e5f4699a663fda4de0ab8ac614284b74ba6521f7c9d7a96a867385b9d5c9"),
    "fig6a-mem-bandwidth":
        (8, "30245e02cb37a66dd1c200bda662a79521101b27d6e8d05f0044dfd68c511081"),
    "fig6b-mem-latency":
        (6, "42261039b82881d8cb9f6001529b1ef43934111df28668feaab2bfc1220f011f"),
    "fig7-transformer":
        (8, "702b7514f24127a3de867b77b169174be6b700c5616f55a64020e5a7777f5cad"),
    "fig8-gemm-split":
        (4, "03be2fbde3d5cd63d2adf66760f4ddffccb9e62d327448bbf634e6ecf2e11c17"),
    "fig9-tradeoff":
        (4, "03be2fbde3d5cd63d2adf66760f4ddffccb9e62d327448bbf634e6ecf2e11c17"),
    "packet-size":
        (7, "d203322116f81f7c86188d69062827847ade219d31e148d8859253a6afa23ce8"),
    "pcie-bandwidth":
        (12, "46eec47533c1f9305485c00548308d5e9bebc55db03451223ad0019b8fd227a2"),
    "roofline":
        (6, "b53c2d05ee6bb02c7e22e7e6a1317ce54951b6491fa421547ee2b32ce8963641"),
    "surrogate-xval":
        (4, "189dcf28f88a54d95861d948b1ad3a7b6e7f80872226a30bb5f4335895158148"),
    "tab4-translation":
        (4, "808eac20c22900bb20143a1cdb8f44e36ff8ac703cc53b3710158cc77e146f52"),
    "topo-contention":
        (4, "1284efc54ac84e45e34bfaa4f792b7765eca3284b6f708bf37b76ded738242e3"),
    "topo-endpoint-scaling":
        (4, "8abb164995af64df18c91302bf7de57dcc4690217fce218bacbc3afc0600e2d3"),
    "topo-p2p":
        (6, "3510217dfc7607ce1702e5a4ab1a84ae3d1dddcd88ef1db83ce2f14cbd60e6d5"),
    "topo-switch-depth":
        (3, "4f4465197fa0e71a9bb263c2d70260a26af550cb1c3df35fae6397e75fab7a9d"),
}


def _estimate_digest(estimates):
    digest = hashlib.sha256()
    for e in estimates:
        digest.update(
            f"{e.key!r}|{e.runner}|{e.ticks.hex()}|{e.bytes_on_wire.hex()}"
            f"|{e.uplink_busy.hex()}\n".encode()
        )
    return len(estimates), digest.hexdigest()


class TestEstimatePins:
    def test_pins_cover_every_estimable_sweep(self):
        estimable = {
            name for name in SWEEPS
            if build_sweep(name).runner in _ESTIMATORS
        }
        assert estimable == set(ESTIMATE_PINS)
        assert sum(count for count, _ in ESTIMATE_PINS.values()) == 146

    @pytest.mark.parametrize("name", sorted(ESTIMATE_PINS))
    def test_estimates_bit_identical(self, name):
        """Every estimate keeps its exact value, float for float."""
        assert _estimate_digest(estimate_spec(build_sweep(name))) == (
            ESTIMATE_PINS[name]
        )


class TestLadder:
    def test_spec_validation(self):
        spec = build_sweep("fig6a-mem-bandwidth", size=32)
        with pytest.raises(ValueError):
            LadderSpec(spec=spec)  # neither filter
        with pytest.raises(ValueError):
            LadderSpec(spec=spec, top_k=2, pareto=True)  # both
        with pytest.raises(ValueError):
            LadderSpec(spec=spec, top_k=2, margin=-0.5)
        with pytest.raises(ValueError):
            LadderSpec(spec=spec, top_k=2, objectives=())

    def test_survivors_bit_identical_to_direct_run(self, tmp_path):
        """The golden property: the ladder never changes survivor records."""
        spec = build_sweep("fig6a-mem-bandwidth", size=32)
        ladder = LadderSpec(spec=spec, top_k=2, margin=0.0)
        report = run_ladder(
            ladder, workers=1, cache_dir=tmp_path / "ladder"
        )
        assert report.scored == len(spec.points)
        assert report.surviving == 2
        assert report.pruned == len(spec.points) - 2

        direct = run_sweep(
            survivor_spec(spec, report.survivor_keys),
            workers=1, cache=False,
        )
        ladder_records = {
            o.key: o.record for o in report.report.outcomes
        }
        direct_records = {o.key: o.record for o in direct.outcomes}
        assert ladder_records == direct_records

        # Survivors landed in the shared cache: a replay is all hits.
        replay = run_ladder(
            ladder, workers=1, cache_dir=tmp_path / "ladder"
        )
        assert replay.report.fully_cached
        assert replay.survivor_keys == report.survivor_keys

    def test_report_record_shape(self, tmp_path):
        spec = build_sweep("fig6a-mem-bandwidth", size=32)
        ladder = LadderSpec(spec=spec, top_k=1, margin=0.0)
        report = run_ladder(ladder, workers=1, cache_dir=tmp_path)
        record = report.to_record()
        assert record["ladder"]["scored"] == len(spec.points)
        assert record["ladder"]["surviving"] == 1
        assert len(record["points"]) == 1
        json.dumps(record)  # JSON-safe end to end
        assert "pruned" in report.describe()

    def test_pareto_ladder_runs(self, tmp_path):
        spec = build_sweep("fig6a-mem-bandwidth", size=32)
        ladder = LadderSpec(
            spec=spec, pareto=True,
            objectives=("ticks", "bytes_on_wire"), margin=0.0,
        )
        report = run_ladder(ladder, workers=1, cache_dir=tmp_path)
        assert 1 <= report.surviving <= len(spec.points)


class TestCrossValidation:
    def test_stratified_sample(self):
        spec = build_sweep("fig6a-mem-bandwidth", size=32)
        full = stratified_sample(spec, fraction=1.0)
        assert [p.key for p in full.points] == [p.key for p in spec.points]
        half = stratified_sample(spec, fraction=0.5)
        assert [p.key for p in half.points] == [
            p.key for p in spec.points[::2]
        ]
        tiny = stratified_sample(spec, fraction=0.01)
        assert [p.key for p in tiny.points] == [
            spec.points[0].key, spec.points[-1].key,
        ]
        with pytest.raises(ValueError):
            stratified_sample(spec, fraction=0.0)

    def test_calibration_round_trip(self, tmp_path):
        calib = Calibration(runners={
            "gemm": RunnerCalibration(
                scale=1.4, p50=-0.01, p95=0.3, max=0.5, samples=4
            ),
        })
        path = tmp_path / "calib.json"
        calib.save(path)
        loaded = Calibration.load(path)
        assert loaded == calib
        assert loaded.scale_for("gemm") == 1.4
        assert loaded.scale_for("vit") == 1.0
        assert loaded.p95_for("vit") is None
        assert "gemm" in loaded.describe()

    def test_cross_validate_fits_scale(self, tmp_path):
        spec = build_sweep("fig6a-mem-bandwidth", size=32)
        calib = cross_validate(
            spec, fraction=0.5, workers=1, cache_dir=tmp_path
        )
        entry = calib.runners["gemm"]
        assert entry.scale > 0
        assert entry.samples == 4
        assert 0.0 <= entry.p95 <= entry.max
        # Scaled estimates carry the fitted factor.
        raw = estimate_spec(spec)
        scaled = estimate_spec(spec, calibration=calib)
        for before, after in zip(raw, scaled):
            assert after.ticks == pytest.approx(before.ticks * entry.scale)

    def test_ladder_refuses_uncalibrated_margin(self, tmp_path):
        spec = build_sweep("fig6a-mem-bandwidth", size=32)
        calib = Calibration(runners={
            "gemm": RunnerCalibration(
                scale=1.0, p50=0.0, p95=0.4, max=0.6, samples=4
            ),
        })
        ladder = LadderSpec(
            spec=spec, top_k=2, margin=0.1, calibration=calib
        )
        with pytest.raises(CalibrationError):
            run_ladder(ladder, workers=1, cache=False)
        # A margin at or above the measured p95 is accepted.
        ok = dataclasses.replace(ladder, margin=0.4)
        report = run_ladder(ok, workers=1, cache_dir=tmp_path)
        assert report.surviving >= 2


class TestRegisteredSweeps:
    def test_roofline_sweep_registered(self):
        spec = build_sweep("roofline")
        assert spec.runner == "gemm"
        assert len(spec.points) == 6
        # Keys are the per-tile compute overrides, baked into each config.
        assert [p.key for p in spec.points] == sorted(
            p.key for p in spec.points
        )
        assert all(
            p.config.compute_ticks_override == p.key for p in spec.points
        )

    def test_surrogate_xval_sweep_registered(self):
        spec = build_sweep("surrogate-xval", fraction=0.5)
        base = build_sweep("fig6a-mem-bandwidth")
        assert spec.name == "surrogate-xval"
        assert [p.key for p in spec.points] == [
            p.key for p in base.points[::2]
        ]

    def test_surrogate_xval_other_target(self):
        spec = build_sweep(
            "surrogate-xval", target="topo-p2p", fraction=0.34
        )
        assert spec.runner == "peer"
        assert len(spec.points) == 2
