"""Tests for the engine tiers: the slotted mesh tier, the fidelity axis,
cross-tier sweeps and the validate-fidelity harness.

The contracts pinned here are the ones the fidelity axis rests on:
the winner process consumes the exact ``rng.choices`` draw sequence
(uniform fast path included), the slotted mesh is deterministic and
parallel-safe, ``fidelity=event`` changes no exported bytes, and the
validation report's pairing/tolerance logic fails loudly instead of
silently mis-pairing.
"""

import random

import pytest

from repro.analysis.activation import activation_distribution, successful_links
from repro.experiments.specs import catalogue, get_spec
from repro.results import (
    DEFAULT_TOLERANCES,
    ResultSet,
    Study,
    Tolerance,
    ValidationError,
    validate_fidelity,
)
from repro.results.types import canonical_result_dict
from repro.sim.slotted import SlottedFlow, SlottedMesh, sample_transmitters


def _choices_reference(contenders, cw, defer_of, rng):
    """The winner process spelled with random.choices (the contract)."""
    ordered = sorted(contenders)
    transmitters = []
    while ordered:
        weights = [1.0 / cw[node] for node in ordered]
        winner = rng.choices(ordered, weights=weights)[0]
        transmitters.append(winner)
        deferring = defer_of(winner)
        ordered = [o for o in ordered if o != winner and o not in deferring]
    return transmitters


class TestWinnerProcess:
    def test_matches_choices_reference_bit_for_bit(self):
        chain_defer = lambda w: (w - 1, w + 1)
        for trial in range(300):
            seed_rng = random.Random(trial)
            n = seed_rng.randint(2, 24)
            contenders = set(
                i for i in range(n) if seed_rng.random() < 0.7
            ) or {0}
            cw = {i: seed_rng.choice([16, 32, 64, 1024]) for i in range(n)}
            a = sample_transmitters(
                set(contenders), cw, chain_defer, random.Random(trial)
            )
            b = _choices_reference(
                contenders, cw, chain_defer, random.Random(trial)
            )
            assert a == b

    def test_uniform_fast_path_bit_identical(self):
        # cw=None asserts equal power-of-two windows; the fast path must
        # consume the same draws and pick the same winners as the
        # weighted arithmetic it replaces.
        chain_defer = lambda w: (w - 1, w + 1)
        for trial in range(300):
            seed_rng = random.Random(1000 + trial)
            n = seed_rng.randint(2, 24)
            contenders = set(i for i in range(n) if seed_rng.random() < 0.7) or {0}
            cw = {i: 16 for i in range(n)}
            rng_a, rng_b = random.Random(trial), random.Random(trial)
            a = sample_transmitters(set(contenders), cw, chain_defer, rng_a)
            b = sample_transmitters(set(contenders), None, chain_defer, rng_b)
            assert a == b
            # Same number of draws consumed: the streams stay aligned.
            assert rng_a.random() == rng_b.random()

    @pytest.mark.parametrize("uniform", [False, True])
    def test_winner_distribution_matches_activation_distribution(self, uniform):
        hops = 4
        buffers = [float("inf"), 1.0, 1.0, 1.0]
        cw = [16] * hops
        exact = activation_distribution(buffers, cw, hops)
        rng = random.Random(7 if uniform else 8)
        contenders = [i for i in range(hops) if i == 0 or buffers[i] > 0]
        counts = {}
        samples = 20000
        for _ in range(samples):
            transmitters = sample_transmitters(
                list(contenders),
                None if uniform else cw,
                lambda w: (w - 1, w + 1),
                rng,
            )
            pattern = successful_links(transmitters, hops)
            counts[pattern] = counts.get(pattern, 0) + 1
        assert set(counts) <= set(exact)
        for pattern, probability in exact.items():
            observed = counts.get(pattern, 0) / samples
            assert observed == pytest.approx(probability, abs=0.015)


class _ChainConnectivity:
    """Minimal duck-typed static chain 0 - 1 - ... - n."""

    def __init__(self, last: int):
        self.last = last

    def nodes(self):
        return list(range(self.last + 1))

    def receivers_of(self, node):
        return frozenset(
            v for v in (node - 1, node + 1) if 0 <= v <= self.last
        )

    def senders_received_at(self, node):
        return self.receivers_of(node)


def _chain_mesh(seed: int) -> SlottedMesh:
    last = 4
    flows = [SlottedFlow("F0", "cbr", 0, last, pkts_per_slot=0.45)]
    mesh = SlottedMesh(
        _ChainConnectivity(last),
        flows,
        rng=random.Random(seed),
        slot_s=0.01,
    )
    mesh.set_routes({last: {i: i + 1 for i in range(last)}})
    return mesh


class TestSlottedMeshDeterminism:
    def test_same_seed_identical_slot_trace(self):
        traces = []
        for _ in range(2):
            mesh = _chain_mesh(21)
            outcomes = []
            mesh.run(400, on_slot=outcomes.append)
            traces.append(outcomes)
        assert traces[0] == traces[1]
        assert any(outcome.delivered for outcome in traces[0])

    def test_record_false_changes_no_state(self):
        observed = _chain_mesh(33)
        observed.run(400, on_slot=lambda outcome: None)
        silent = _chain_mesh(33)
        for _ in range(400):
            assert silent.step(record=False) is None
        flow_a, flow_b = observed.flows[0], silent.flows[0]
        assert flow_a.generated == flow_b.generated
        assert flow_a.delivered == flow_b.delivered
        assert flow_a.lost == flow_b.lost
        assert observed.backlog() == silent.backlog()
        assert observed.cw == silent.cw


class TestFidelityAxis:
    def test_event_default_bytes_unchanged(self):
        spec = get_spec("meshgen")
        implicit = spec.run(nodes=12, duration_s=6.0)
        explicit = spec.run(nodes=12, duration_s=6.0, fidelity="event")
        assert canonical_result_dict(implicit) == canonical_result_dict(explicit)
        assert "fidelity" not in implicit.parameters
        assert "fidelity" not in explicit.parameters

    def test_slotted_records_fidelity_parameter(self):
        result = get_spec("meshgen").run(
            nodes=12, duration_s=6.0, fidelity="slotted"
        )
        assert result.parameters["fidelity"] == "slotted"
        assert result.find_table("Summary") is not None

    def test_unknown_fidelity_rejected(self):
        with pytest.raises(ValueError, match="fidelity"):
            get_spec("meshgen").run(nodes=12, duration_s=2.0, fidelity="nope")

    def test_unknown_fidelity_names_value_and_known_tiers(self):
        with pytest.raises(
            ValueError, match="unknown fidelity 'warp-speed'; known: event, slotted"
        ):
            get_spec("meshgen").run(fidelity="warp-speed")

    def test_catalogue_advertises_fidelities(self):
        data = catalogue()
        assert data["schema"] == "repro.experiments/catalogue/2"
        by_id = {spec["id"]: spec for spec in data["experiments"]}
        assert by_id["meshgen"]["fidelities"] == ["event", "slotted"]
        assert by_id["fig1"]["fidelities"] == ["event"]

    def test_slotted_sweep_parallel_bytes_identical(self):
        def sweep(jobs):
            return (
                Study("meshgen")
                .no_default_axes()
                .grid(algorithm=["none", "ezflow"])
                .set(nodes=16, duration_s=6.0, fidelity="slotted")
                .run(jobs=jobs)
            )

        serial, parallel = sweep(1), sweep(2)
        assert serial.run_ids == parallel.run_ids
        for left, right in zip(serial, parallel):
            assert left.canonical() == right.canonical()


@pytest.fixture(scope="module")
def matrix():
    """A 2-algorithm x 2-tier meshgen matrix (one topology, fast)."""
    return (
        Study("meshgen")
        .no_default_axes()
        .grid(algorithm=["none", "ezflow"], fidelity=["event", "slotted"])
        .set(nodes=16, duration_s=10.0, seed=11)
        .run()
    )


class TestEffectiveParam:
    def test_request_kwargs_fill_elided_axes(self, matrix):
        for run in matrix:
            tier = run.effective_param("fidelity", "event")
            if str(run.kwargs.get("fidelity")) == "slotted":
                assert run.parameters["fidelity"] == "slotted"
                assert tier == "slotted"
            else:
                # The event default is elided from exported parameters
                # but still visible through the request kwargs.
                assert "fidelity" not in run.parameters
                assert tier == "event"
        assert matrix[0].effective_param("no_such_axis", "fallback") == "fallback"


class TestTolerance:
    def test_needs_a_bound(self):
        with pytest.raises(ValueError):
            Tolerance("aggregate_kbps")

    def test_either_bound_accepts(self):
        band = Tolerance("m", rel_tol=0.10, abs_tol=5.0)
        assert band.accepts(100.0, 104.0)  # inside both
        assert band.accepts(100.0, 109.0)  # abs out, rel in
        assert band.accepts(10.0, 14.0)  # rel out, abs in
        assert not band.accepts(10.0, 16.0)  # outside both

    def test_deltas_and_describe(self):
        band = Tolerance("m", rel_tol=0.5)
        abs_delta, rel_delta = band.deltas(10.0, 14.0)
        assert abs_delta == pytest.approx(4.0)
        assert rel_delta == pytest.approx(0.4)
        assert band.describe() == "rel<=0.5"
        assert Tolerance("m", abs_tol=2.0).describe() == "abs<=2"
        # Dead baseline metric: the floor keeps the ratio finite.
        _, rel_dead = band.deltas(0.0, 0.0)
        assert rel_dead == 0.0

    def test_defaults_cover_headline_metrics(self):
        assert [t.metric for t in DEFAULT_TOLERANCES] == [
            "aggregate_kbps",
            "delivered_ratio",
            "jain_fairness",
        ]


class TestValidateFidelity:
    def test_pairs_and_reports(self, matrix):
        report = validate_fidelity(matrix)
        assert report.pair_count == 2
        assert report.unpaired == ()
        assert len(report.rows) == 2 * len(DEFAULT_TOLERANCES)
        table = report.table()
        assert "slotted vs event" in table.title
        assert len(table.rows) == len(report.rows)

    def test_tight_tolerance_flags_violations(self, matrix):
        report = validate_fidelity(
            matrix, tolerances=[Tolerance("aggregate_kbps", rel_tol=1e-12)]
        )
        assert not report.ok
        assert report.violations
        rendered = report.table().render()
        assert "NO" in rendered

    def test_loose_tolerance_passes(self, matrix):
        report = validate_fidelity(
            matrix, tolerances=[Tolerance("aggregate_kbps", rel_tol=100.0)]
        )
        assert report.ok and not report.violations

    def test_unpaired_runs_reported(self, matrix):
        pruned = ResultSet(
            run
            for run in matrix
            if not (
                str(run.effective_param("fidelity", "event")) == "slotted"
                and str(run.effective_param("algorithm")) == "ezflow"
            )
        )
        report = validate_fidelity(pruned)
        assert report.pair_count == 1
        assert len(report.unpaired) == 1

    def test_duplicate_tier_in_group_rejected(self, matrix):
        with pytest.raises(ValidationError, match="several"):
            validate_fidelity(matrix, align=[])

    def test_empty_and_degenerate_inputs_rejected(self, matrix):
        with pytest.raises(ValidationError):
            validate_fidelity(ResultSet([]))
        with pytest.raises(ValidationError):
            validate_fidelity(matrix, candidate="event")
        with pytest.raises(ValidationError):
            validate_fidelity(matrix, tolerances=[])
        with pytest.raises(ValidationError, match="missing"):
            validate_fidelity(
                matrix, tolerances=[Tolerance("no_such_metric", abs_tol=1.0)]
            )
        only_event = ResultSet(
            run
            for run in matrix
            if str(run.effective_param("fidelity", "event")) == "event"
        )
        with pytest.raises(ValidationError, match="pair"):
            validate_fidelity(only_event)


class TestValidateFidelityCli:
    ARGS = [
        "validate-fidelity",
        "--topologies",
        "mesh",
        "--algorithms",
        "none,ezflow",
        "--nodes",
        "16",
        "--duration",
        "10",
    ]

    def test_fresh_matrix_passes(self, capsys):
        from repro.experiments.__main__ import main

        assert main(list(self.ARGS)) == 0
        captured = capsys.readouterr()
        assert "Fidelity agreement" in captured.out
        assert "fidelity validation OK" in captured.err

    def test_out_saves_runs_and_report_then_reloads(self, tmp_path, capsys):
        from repro.experiments.__main__ import main

        out_dir = tmp_path / "matrix"
        assert main(list(self.ARGS) + ["--out", str(out_dir)]) == 0
        assert (out_dir / "validation.md").is_file()
        capsys.readouterr()
        assert main(["validate-fidelity", "--from", str(out_dir)]) == 0
        assert "fidelity validation OK" in capsys.readouterr().err

    def test_violations_exit_1(self, tmp_path, capsys, monkeypatch):
        from repro.experiments.__main__ import main

        out_dir = tmp_path / "matrix"
        assert main(list(self.ARGS) + ["--out", str(out_dir)]) == 0
        capsys.readouterr()
        monkeypatch.setattr(
            "repro.results.validation.DEFAULT_TOLERANCES",
            (Tolerance("aggregate_kbps", rel_tol=1e-12),),
        )
        assert main(["validate-fidelity", "--from", str(out_dir)]) == 1
        assert "FIDELITY VALIDATION FAILED" in capsys.readouterr().err

    def test_unpairable_set_exits_2(self, tmp_path, capsys):
        from repro.experiments.__main__ import main

        out_dir = tmp_path / "event-only"
        Study("meshgen").set(nodes=12, duration_s=4.0).run().save(str(out_dir))
        assert main(["validate-fidelity", "--from", str(out_dir)]) == 2
        assert "pair" in capsys.readouterr().err

    def test_static_only_skips_dynamic_cases(self, capsys):
        from repro.experiments.__main__ import main

        assert main(list(self.ARGS) + ["--static-only"]) == 0
        captured = capsys.readouterr()
        assert "0 dynamic case(s), x 2 tiers = 4 run(s)" in captured.err
        assert "iid:0.1" not in captured.out

    def test_dynamic_cases_in_default_matrix(self, capsys):
        from repro.experiments.__main__ import main

        assert main(list(self.ARGS)) == 0
        captured = capsys.readouterr()
        assert "2 dynamic case(s), x 2 tiers = 8 run(s)" in captured.err
        assert "iid:0.1" in captured.out
        assert "down:2@10+up:2@20" in captured.out


class TestValidationStudyDynamicCases:
    def test_dynamic_blocks_pair_and_align(self):
        from repro.results import validate_fidelity, validation_study
        from repro.results.validation import DYNAMIC_CASES

        results = validation_study(
            topologies=("mesh",),
            algorithms=("ezflow",),
            nodes=12,
            duration_s=4.0,
            seed=11,
            dynamic_cases=({"topology": "mesh", "algorithm": "ezflow", "loss": "iid:0.1"},),
        )
        assert len(results) == 4  # (static + loss case) x 2 tiers
        report = validate_fidelity(
            results, tolerances=[Tolerance("aggregate_kbps", rel_tol=10.0)]
        )
        assert report.pair_count == 2
        assert not report.unpaired
        scenarios = {row.scenario_dict.get("loss") for row in report.rows}
        assert scenarios == {"None", "iid:0.1"}
        # The default cases stay well-formed meshgen parameter sets.
        for case in DYNAMIC_CASES:
            get_spec("meshgen").validate(case)

    def test_dynamic_cases_checkpoint_into_store(self, tmp_path):
        from repro.results import SqliteStore, validation_study

        store = SqliteStore(str(tmp_path / "matrix.sqlite"))
        kwargs = dict(
            topologies=("mesh",),
            algorithms=("ezflow",),
            nodes=12,
            duration_s=4.0,
            seed=11,
            dynamic_cases=({"topology": "mesh", "algorithm": "ezflow", "loss": "iid:0.1"},),
            store=store,
        )
        validation_study(**kwargs)
        assert len(store) == 4
        # Re-running the same matrix against the store is all cache hits
        # (the store digest cannot change).
        digest = store.digest()
        validation_study(**kwargs)
        assert store.digest() == digest
        store.close()
