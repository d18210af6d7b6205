"""Tests for stage probabilities, chain construction, and first-passage analytics."""

import math
import random
from dataclasses import replace

import numpy as np
import pytest

from riskctl import (
    AnalysisConfig,
    AttackPath,
    Attacker,
    AttackStage,
    MarkovChain,
    ProbabilityLaw,
    ReferenceDomain,
    ScoreSet,
    ThreatModel,
    ViewDomain,
    build_chain,
    build_results_grid,
    hit_probability_within,
    mean_time_to_compromise,
    realization_probability,
    simulate,
    stage_attack_probabilities,
    stage_attack_probability,
    stage_forward_probabilities,
    validate_stochastic,
)
from riskctl import stages
from riskctl.chain import _first_passage_cdf, _hit_within, _moves, _step
from riskctl.errors import InvalidConfigError, NumericalError, UnreachableTargetError
from riskctl.report import _grid

# Reference forward probabilities and realization values for the
# built-in paths under the default configuration.
EXPECTED_ID1_STAGES = (0.4946, 0.53541, 0.78381, 0.9643)
EXPECTED_REALIZATION = {
    "1": 0.2001, "2a": 0.1880, "2b": 0.3313, "3": 0.2430, "4": 0.2948, "5": 0.5652,
}

LEGACY_MATRIX = np.array(
    [
        [0.5, 0.5, 0.0, 0.0],
        [0.05, 0.55, 0.40, 0.0],
        [0.0, 0.01, 0.21, 0.78],
        [0.0, 0.0, 0.1, 0.9],
    ]
)


def toy_model(scores, domains, d=0.1, k=2.0, law=ProbabilityLaw.EXPONENTIAL,
              first_index=1):
    """One-score-set model with a single path over the given domains."""
    totals = dict(zip(ViewDomain, [0.0, 0.0, 0.0, 0.0]))
    totals.update(scores)
    path = AttackPath(
        id="t",
        attacker=Attacker.UNAUTHORIZED,
        origin=ReferenceDomain.VEHICLE,
        stages=tuple(AttackStage(ReferenceDomain.VEHICLE, dom, "stage") for dom in domains),
        first_stage_index=first_index,
    )
    model = ThreatModel(
        score_sets={"toy": ScoreSet(name="toy", totals=totals)},
        paths=(path,),
        config=AnalysisConfig(
            defence_probability=d, exponent_coefficient=k,
            probability_law=law, score_set="toy",
        ),
    )
    return model, path


def every_step_cdf(chain, horizon):
    """(F(0..horizon), live after the last step) from all ``horizon``
    steps of ``_step``, with no early stop."""
    rows = _moves(chain)
    live = [1.0] + [0.0] * (len(rows) - 1)
    cdf = [0.0]
    for _ in range(horizon):
        live, arrived = _step([(p * f, p * b, p * s) for p, (f, b, s) in zip(live, rows)])
        cdf.append(cdf[-1] + arrived)
    return cdf, live


def assert_early_stop_exact(chain, horizon, reference):
    """``_first_passage_cdf`` held at its last entry, and the (P, E) of
    ``_hit_within``, equal the every-step ``reference`` bit for bit."""
    cdf = _first_passage_cdf(chain, horizon)
    assert cdf + cdf[-1:] * (horizon + 1 - len(cdf)) == reference
    within = None
    if reference[-1] > 0.0:
        arrivals = enumerate(zip(reference, reference[1:]), 1)
        within = math.fsum(t * (b - a) for t, (a, b) in arrivals) / reference[-1]
    assert _hit_within(chain, horizon) == (min(max(reference[-1], 0.0), 1.0), within)


class TestStageAttackProbability:
    def test_first_stage_networking(self):
        config = AnalysisConfig()
        assert stage_attack_probability(1, 14.5, config) == pytest.approx(0.4946, abs=5e-5)

    def test_fourth_stage_data(self):
        config = AnalysisConfig()
        assert stage_attack_probability(4, 17.7, config) == pytest.approx(0.9643, abs=5e-5)

    def test_unit_coefficient(self):
        config = AnalysisConfig(exponent_coefficient=1.0)
        assert stage_attack_probability(2, 15.0, config) == pytest.approx(0.506, abs=5e-4)

    def test_zero_score(self):
        config = AnalysisConfig()
        for i in (1, 3, 10):
            assert stage_attack_probability(i, 0.0, config) == 0.0

    def test_zero_score_when_k_times_index_overflows(self):
        config = AnalysisConfig(exponent_coefficient=1e308)
        assert stage_attack_probability(2, 0.0, config) == 0.0
        assert stage_attack_probability(2, 14.5, config) == 1.0

    def test_index_past_float_range_gives_the_limit(self):
        config = AnalysisConfig()
        assert stage_attack_probability(10**400, 14.5, config) == 1.0
        assert stage_attack_probability(10**400, 0.0, config) == 0.0
        # The largest convertible indices keep the formula's value.
        tiny = AnalysisConfig(exponent_coefficient=1e-310)
        for i in (2**1023, 2**1024 - 2**971):
            expected = 1.0 - math.exp(-1e-310 * i * 14.5 / 42.5)
            assert 0.0 < expected < 1.0
            assert stage_attack_probability(i, 14.5, tiny) == expected

    def test_linear_law_independent_of_index(self):
        config = AnalysisConfig(probability_law=ProbabilityLaw.LINEAR)
        values = {stage_attack_probability(i, 14.5, config) for i in range(1, 8)}
        assert values == {14.5 / 42.5}

    def test_score_above_normalization_warns(self):
        config = AnalysisConfig()
        with pytest.warns(UserWarning, match="exceeds"):
            value = stage_attack_probability(1, 50.0, config)
        assert 0.0 < value < 1.0
        linear = AnalysisConfig(probability_law=ProbabilityLaw.LINEAR)
        with pytest.warns(UserWarning):
            assert stage_attack_probability(1, 50.0, linear) == 1.0

    def test_invalid_arguments(self):
        config = AnalysisConfig()
        with pytest.raises(ValueError):
            stage_attack_probability(0, 14.5, config)
        with pytest.raises(ValueError):
            stage_attack_probability(1, -1.0, config)

    def test_invalid_config_rejected_at_construction(self):
        with pytest.raises(InvalidConfigError):
            AnalysisConfig(exponent_coefficient=0.0)
        with pytest.raises(InvalidConfigError):
            AnalysisConfig(normalization=-1.0)
        with pytest.raises(InvalidConfigError):
            AnalysisConfig(defence_probability=1.0001)

    def test_strictly_increasing_in_index_and_score(self):
        config = AnalysisConfig()
        probs = [stage_attack_probability(i, 14.5, config) for i in range(1, 12)]
        assert all(a < b for a, b in zip(probs, probs[1:]))
        assert all(0.0 <= p < 1.0 for p in probs)
        by_score = [stage_attack_probability(3, f, config) for f in np.linspace(0.5, 42.5, 25)]
        assert all(a < b for a, b in zip(by_score, by_score[1:]))


class TestStageForwardProbabilities:
    def test_id1_reference_values(self, model):
        probs = stage_forward_probabilities(model.path("1"), model)
        assert probs == pytest.approx(EXPECTED_ID1_STAGES, abs=5e-5)

    def test_id2a_reference_values(self, model):
        probs = stage_forward_probabilities(model.path("2a"), model)
        assert probs == pytest.approx((0.2807, 0.7299, 0.9178), abs=5e-5)

    @pytest.mark.parametrize("d", [0.0, 0.1, 0.5, 1.0])
    def test_single_stage_never_gated(self, model, d):
        config = replace(model.config, defence_probability=d)
        probs = stage_forward_probabilities(model.path("5"), model, config)
        assert probs == pytest.approx([0.5652], abs=5e-5)

    def test_first_and_last_stage_ungated_by_default(self, model):
        raw = stage_attack_probabilities(model.path("1"), model)
        forward = stage_forward_probabilities(model.path("1"), model)
        assert forward[0] == raw[0]
        assert forward[-1] == raw[-1]
        for mid_raw, mid_fwd in zip(raw[1:-1], forward[1:-1]):
            assert mid_fwd == pytest.approx(mid_raw * 0.9, abs=1e-12)

    def test_final_stage_gating_flag(self, model):
        config = replace(model.config, defence_on_final_stage=True)
        raw = stage_attack_probabilities(model.path("1"), model)
        forward = stage_forward_probabilities(model.path("1"), model, config)
        assert forward[-1] == pytest.approx(raw[-1] * 0.9, abs=1e-12)
        assert forward[0] == raw[0]

    def test_zero_defence_is_identity(self, model):
        config = replace(model.config, defence_probability=0.0)
        for path in model.paths:
            raw = stage_attack_probabilities(path, model, config)
            assert stage_forward_probabilities(path, model, config) == raw

    def test_per_stage_defence_vector(self, model):
        config = replace(model.config, defence_probability=(0.0, 0.5, 0.2, 0.0))
        raw = stage_attack_probabilities(model.path("1"), model)
        forward = stage_forward_probabilities(model.path("1"), model, config)
        assert forward[1] == pytest.approx(raw[1] * 0.5, abs=1e-12)
        assert forward[2] == pytest.approx(raw[2] * 0.8, abs=1e-12)

    def test_empty_path(self):
        # An empty path is refused when it is built, before any stage is derived.
        with pytest.raises(InvalidConfigError, match="stages must be a non-empty array"):
            AttackPath(id="x", attacker=Attacker.UNAUTHORIZED,
                       origin=ReferenceDomain.CLOUD, stages=())

    @pytest.mark.parametrize("compute", [realization_probability, build_chain])
    def test_per_stage_defence_shorter_than_the_path(self, model, compute):
        # A document's config is checked against its longest path; a
        # library caller can pass another config, and is told the position.
        config = replace(model.config, defence_probability=(0.1, 0.1))
        with pytest.raises(InvalidConfigError, match="length 2 has no entry for stage position 3"):
            compute(model.path("1"), model, config)

    def test_each_domain_scored_once_in_stage_order(self, model, monkeypatch):
        # Path 1 visits networking, software, networking, data.
        scored = []
        resolve = stages.resolve_score
        monkeypatch.setattr(
            stages, "resolve_score",
            lambda m, domain, *rest: scored.append(domain) or resolve(m, domain, *rest),
        )
        stage_forward_probabilities(model.path("1"), model)
        assert scored == [ViewDomain.NETWORKING, ViewDomain.SOFTWARE, ViewDomain.DATA]


class TestRealizationProbability:
    def test_reference_table(self, model):
        for path in model.paths:
            expected = EXPECTED_REALIZATION[path.id]
            assert realization_probability(path, model) == pytest.approx(expected, abs=5e-4)

    def test_equals_stage_product(self, model):
        for path in model.paths:
            product = math.prod(stage_forward_probabilities(path, model))
            assert realization_probability(path, model) == pytest.approx(product, abs=1e-12)

    def test_zero_score_single_stage(self):
        toy, path = toy_model({}, [ViewDomain.DATA])
        assert realization_probability(path, toy) == 0.0

    def test_appending_a_stage_never_increases(self):
        rng = np.random.default_rng(7)
        domains = list(ViewDomain)
        for _ in range(50):
            scores = {d: rng.uniform(0.0, 42.5) for d in domains}
            length = int(rng.integers(1, 6))
            seq = [domains[i] for i in rng.integers(0, 4, size=length + 1)]
            d = float(rng.uniform(0.0, 1.0))
            shorter, short_path = toy_model(scores, seq[:-1], d=d)
            longer, long_path = toy_model(scores, seq, d=d)
            assert (
                realization_probability(long_path, longer)
                <= realization_probability(short_path, shorter) + 1e-12
            )


def expected_grid(model, config=None):
    """The results grid over each path's product of forward probabilities."""
    return _grid(model, [math.prod(stage_forward_probabilities(path, model, config))
                         for path in model.paths])


class TestBuildResultsGrid:
    @pytest.mark.parametrize(
        "changes",
        [{}, {"defence_probability": 0.3, "defence_on_final_stage": True},
         {"score_set": "formula", "exponent_coefficient": 1.0}],
        ids=["default", "gated-final", "formula"],
    )
    def test_built_in_model(self, model, changes):
        config = replace(model.config, **changes)
        assert build_results_grid(model, config) == expected_grid(model, config)

    def test_aliases_and_shared_cells_keep_model_order(self, model):
        grid = build_results_grid(model)
        cloud = grid[(Attacker.AUTHORIZED, ReferenceDomain.CLOUD)]
        assert cloud == grid[(Attacker.AUTHORIZED, ReferenceDomain.INFRA_EDGE)]
        shared = grid[(Attacker.UNAUTHORIZED, ReferenceDomain.INFRA_EDGE)]
        assert [cell.path_id for cell in shared] == ["2a", "2b"]


class TestBuildChain:
    def test_legacy_configuration(self, model):
        path = replace(model.path("3"), first_stage_index=2)
        config = replace(model.config, exponent_coefficient=1.0, score_set="legacy")
        chain = build_chain(path, model, config)
        assert np.abs(chain.matrix - LEGACY_MATRIX).max() <= 0.01
        product = float(np.prod(chain.forward_probabilities()))
        assert product == pytest.approx(0.1541, abs=5e-4)

    def test_rows_match_hand_formulas(self, model):
        path = model.path("1")
        chain = build_chain(path, model)
        a = stage_attack_probabilities(path, model)
        d = 0.1
        assert chain.stage_probs == tuple(a)
        assert chain.matrix[0, 0] == 1 - a[0]
        assert chain.matrix[0, 1] == a[0]
        for row in (1, 2, 3):
            attack = a[row]
            assert chain.matrix[row, row - 1] == pytest.approx(d * (1 - attack), abs=1e-15)
            assert chain.matrix[row, row] == pytest.approx(
                attack * d + (1 - attack) * (1 - d), abs=1e-15
            )
            assert chain.matrix[row, row + 1] == pytest.approx(
                attack * (1 - d), abs=1e-15
            )
        assert chain.matrix[4, 3] == d
        assert chain.matrix[4, 4] == 1 - d

    def test_state_labels(self, model):
        chain = build_chain(model.path("1"), model)
        assert chain.states == ("S0", "S1:C-Net", "S2:C-SW", "S3:V-Net", "S4:V-Data")

    def test_zero_defence_makes_target_absorbing(self, model):
        config = replace(model.config, defence_probability=0.0)
        chain = build_chain(model.path("1"), model, config)
        assert np.all(np.diag(chain.matrix, k=-1) == 0.0)
        assert chain.matrix[chain.target, chain.target] == 1.0

    def test_birth_death_structure(self, model):
        chain = build_chain(model.path("1"), model)
        off = chain.matrix - np.triu(np.tril(chain.matrix, 1), -1)
        assert np.all(off == 0.0)

    def test_empty_path(self, model):
        # No chain can be asked for an empty path: emptying one fails.
        with pytest.raises(InvalidConfigError, match="stages must be a non-empty array"):
            replace(model.path("1"), stages=())


class TestBirthDeathRule:
    @pytest.mark.parametrize(
        "rows, message",
        [
            # Row-stochastic, but S_0 jumps to S_2: a walk may move at
            # most one state per step.
            ([[0.5, 0.25, 0.25], [0.0, 0.5, 0.5], [0.0, 0.0, 1.0]],
             r"entry \[0, 2\] = 0.25 lies off"),
            ([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [1.0, 0.0, 0.0]],
             r"entry \[2, 0\] = 1.0 lies off"),
            ([[0.5, 0.5, 0.0], [0.0, np.inf, 0.5], [0.0, 0.0, 1.0]], "finite"),
            ([[0.5, 0.5, np.nan], [0.0, 0.5, 0.5], [0.0, 0.0, 1.0]], "finite"),
        ],
    )
    def test_rejected_at_construction(self, rows, message):
        with pytest.raises(NumericalError, match=message):
            MarkovChain(states=("S0", "S1", "S2"), matrix=np.array(rows))

    @pytest.mark.parametrize("shape", [(3, 3), (2, 3)])
    def test_shape_must_match_the_states(self, shape):
        with pytest.raises(NumericalError, match=rf"matrix shape \({shape[0]}, {shape[1]}\) "
                                                 "does not match 2 states"):
            MarkovChain(states=("S0", "S1"), matrix=np.eye(*shape))

    def test_one_state_is_rejected(self):
        # No transient state: nothing to step, simulate or wait for.
        with pytest.raises(NumericalError, match="two rows"):
            MarkovChain(states=("S0",), matrix=np.eye(1))

    def test_copy_of_a_built_chain_is_accepted(self, model):
        chain = build_chain(model.path("1"), model)
        copy = replace(chain, matrix=chain.matrix.copy())
        copy.matrix[1, 1] += 0.25
        assert validate_stochastic(copy) == [
            f"row 1 (S1:C-Net) sums to {float(copy.matrix[1].sum())!r}, not 1",
        ]


class TestValidateStochastic:
    def test_constructed_chains_pass(self, model):
        for path in model.paths:
            assert validate_stochastic(build_chain(path, model)) == []

    def test_row_sum_violation(self):
        chain = MarkovChain(
            states=("S0", "S1"),
            matrix=np.array([[0.5, 0.4], [0.0, 1.0]]),
        )
        violations = validate_stochastic(chain)
        assert len(violations) == 1
        assert "row 0" in violations[0]

    def test_entry_out_of_range(self):
        chain = MarkovChain(
            states=("S0", "S1"),
            matrix=np.array([[1.1, -0.1], [0.0, 1.0]]),
        )
        violations = validate_stochastic(chain)
        assert any("out of [0, 1]" in v for v in violations)

    def test_shape_mismatch(self):
        # Construction refuses the mismatch; a matrix reassigned later is
        # still reported.
        chain = MarkovChain(states=("S0", "S1"), matrix=np.eye(2))
        chain.matrix = np.zeros((3, 3))
        assert validate_stochastic(chain) == [
            "matrix shape (3, 3) does not match 2 states"
        ]


class TestMeanTimeToCompromise:
    def test_single_stage_geometric(self):
        chain = MarkovChain(
            states=("S0", "S1"),
            matrix=np.array([[0.5, 0.5], [0.0, 1.0]]),
        )
        assert mean_time_to_compromise(chain) == pytest.approx(2.0, abs=1e-12)

    def test_deterministic_walk(self):
        m = 3
        matrix = np.eye(m + 1, k=1)
        matrix[m, m] = 1.0
        chain = MarkovChain(states=tuple(f"S{i}" for i in range(m + 1)), matrix=matrix)
        assert mean_time_to_compromise(chain) == pytest.approx(float(m), abs=1e-12)

    def test_no_backstep_closed_form(self, model):
        config = replace(model.config, defence_probability=0.0)
        for path in model.paths:
            chain = build_chain(path, model, config)
            expected = sum(1.0 / p for p in stage_forward_probabilities(path, model, config))
            actual = mean_time_to_compromise(chain)
            assert actual == pytest.approx(expected, rel=1e-9)

    def test_with_defence_exceeds_no_defence(self, model):
        fast = mean_time_to_compromise(
            build_chain(model.path("1"), model, replace(model.config, defence_probability=0.0))
        )
        slow = mean_time_to_compromise(build_chain(model.path("1"), model))
        assert slow > fast

    def test_unreachable(self):
        toy, path = toy_model({}, [ViewDomain.DATA])
        chain = build_chain(path, toy)
        with pytest.raises(UnreachableTargetError):
            mean_time_to_compromise(chain)

    def test_degenerate_solve(self):
        with pytest.raises(NumericalError):
            chain = MarkovChain(
                states=("S0", "S1"),
                matrix=np.array([[np.nan, 0.5], [0.0, 1.0]]),
            )
            mean_time_to_compromise(chain)

    def test_overflow(self):
        # Each step forward is 1e-200 likely: E_1 = (1 + 0.5e200) / 1e-200
        # is past the largest float.
        tiny = 1e-200
        chain = MarkovChain(
            states=("S0", "S1", "S2"),
            matrix=np.array(
                [[1.0 - tiny, tiny, 0.0], [0.5, 0.5 - tiny, tiny], [0.0, 0.0, 1.0]]
            ),
        )
        with pytest.raises(NumericalError, match="overflows"):
            mean_time_to_compromise(chain)


class TestHitProbabilityWithin:
    def test_zero_horizon(self, model):
        chain = build_chain(model.path("1"), model)
        assert hit_probability_within(chain, 0) == 0.0

    def test_single_stage_two_steps(self):
        chain = MarkovChain(
            states=("S0", "S1"),
            matrix=np.array([[0.5, 0.5], [0.0, 1.0]]),
        )
        assert hit_probability_within(chain, 2) == pytest.approx(0.75, abs=1e-12)

    def test_nested_list_matrix(self):
        # The constructor stores the matrix as a float array.
        chain = MarkovChain(states=("S0", "S1"), matrix=[[0.5, 0.5], [0, 1]])
        assert chain.matrix.dtype == float
        assert hit_probability_within(chain, 2) == 0.75
        assert simulate(chain, trials=100, horizon=60, seed=0).hits == 100

    def test_monotone_and_converges(self, model):
        chain = build_chain(model.path("1"), model)
        previous = 0.0
        for horizon in (1, 2, 5, 10, 25, 50, 100, 400):
            value = hit_probability_within(chain, horizon)
            assert value >= previous - 1e-15
            previous = value
        assert previous == pytest.approx(1.0, abs=1e-9)

    def test_negative_horizon(self, model):
        chain = build_chain(model.path("1"), model)
        with pytest.raises(ValueError):
            hit_probability_within(chain, -1)

    @pytest.mark.parametrize("d", [0.0, 0.1, 0.3, 0.5])
    def test_early_stop_matches_every_step(self, model, d):
        # h = 6000 lies past the fixed point of every built-in path.
        horizon = 6000
        config = replace(model.config, defence_probability=d)
        for path in model.paths:
            chain = build_chain(path, model, config)
            reference, live = every_step_cdf(chain, horizon)
            moves = [(p * f, p * b, p * s) for p, (f, b, s) in zip(live, _moves(chain))]
            after, arrived = _step(moves)
            assert after == live and reference[-1] + arrived == reference[-1]
            assert len(_first_passage_cdf(chain, horizon)) < horizon + 1
            assert_early_stop_exact(chain, horizon, reference)

    @pytest.mark.parametrize("horizon", [1000, 6000])
    @pytest.mark.parametrize("m", range(2, 65, 2))
    def test_early_stop_on_generated_paths(self, m, horizon):
        # Drawn scores and a drawn d per stage position; every pass here
        # stops on the mass in transit, well before h = 1000.
        rng = random.Random(m)
        toy, path = toy_model({dom: rng.uniform(0.5, 42.5) for dom in ViewDomain},
                              [rng.choice(list(ViewDomain)) for _ in range(m)],
                              d=tuple(rng.uniform(0.0, 0.5) for _ in range(m)))
        chain = build_chain(path, toy)
        assert_early_stop_exact(chain, horizon, every_step_cdf(chain, horizon)[0])

    @pytest.mark.parametrize("k", range(36, 56))
    def test_early_stop_waits_for_mass_in_transit(self, k):
        # No stay moves: arrivals come every other step, so F stays put
        # for a step while the 2**-k walks sent back are two steps away.
        delta = 2.0**-k
        chain = MarkovChain(states=("S0", "S1", "S2"),
                            matrix=[[0.0, 1.0, 0.0], [delta, 0.0, 1.0 - delta], [0.0, 0.0, 1.0]])
        assert_early_stop_exact(chain, 1000, every_step_cdf(chain, 1000)[0])

    @pytest.mark.parametrize("scores, domains", [
        # Stuck mass: the walks pile up in S_2, whose stage scores 0 at d = 0.
        ({ViewDomain.DATA: 30.0}, [ViewDomain.DATA, ViewDomain.DATA, ViewDomain.SOFTWARE,
                                   ViewDomain.DATA]),
        # No walk leaves S_0.
        ({}, [ViewDomain.DATA, ViewDomain.SOFTWARE]),
    ], ids=["stuck-mass", "unreachable"])
    @pytest.mark.parametrize("horizon", [1000, 6000])
    def test_early_stop_when_the_target_is_out_of_reach(self, scores, domains, horizon):
        toy, path = toy_model(scores, domains, d=0.0)
        chain = build_chain(path, toy)
        reference = every_step_cdf(chain, horizon)[0]
        assert reference[-1] == 0.0
        assert_early_stop_exact(chain, horizon, reference)

    def test_step_adds_stay_then_forward_then_back(self):
        # 1 + u rounds to 1, and 1 + 2u + u to 1 + 4u: only this order
        # gives 1 + 2u in the middle state.
        u = 2.0**-53
        moves = [(u, 0.0, 0.5), (0.5, 0.25, 1.0), (0.0625, 2 * u, 0.125)]
        live, arrived = _step(moves)
        assert live == [0.75, 1.0 + 2 * u, 0.625]
        assert arrived == 0.0625

    def test_step_moves_integer_counts(self):
        # The simulator's draws: (forward, back, stay) walk counts.
        live, arrived = _step([[3, 0, 5], [2, 4, 1], [7, 1, 0]])
        assert live == [9, 5, 2] and arrived == 7
        assert all(type(n) is int for n in live)
