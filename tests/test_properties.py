"""Property tests over generated inputs (hypothesis, derandomized)."""

import io
import json
import math
import random
import tempfile
from contextlib import redirect_stdout
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riskctl import (
    DEFAULT_WEIGHT_TABLE,
    PARAMETERS,
    AnalysisConfig,
    Attacker,
    AttackPath,
    AttackStage,
    InvalidConfigError,
    MarkovChain,
    ProbabilityLaw,
    ReferenceDomain,
    Rounding,
    ScoreSet,
    ThreatModel,
    UnreachableTargetError,
    ViewDomain,
    WeightTable,
    build_chain,
    build_results_grid,
    builtin_paper_model,
    hit_probability_within,
    mean_time_to_compromise,
    parse_model,
    serialize_model,
    simulate,
    stage_attack_probabilities,
    stage_forward_probabilities,
)
from riskctl.chain import _first_passage_cdf
from riskctl.cli import main
from riskctl.report import _grid
from riskctl.stages import _chain_rows


def birth_death_chain(attack, d):
    """The chain for stage attack probabilities ``attack`` and defence
    ``d``, a constant or one per stage position, with the first row,
    the middle rows and the last row written out as three cases."""
    m = len(attack)
    d = d if isinstance(d, tuple) else (d,) * m
    matrix = np.zeros((m + 1, m + 1))
    matrix[0, :2] = 1.0 - attack[0], attack[0]
    for j in range(1, m):
        a, dj = attack[j], d[j]
        matrix[j, j - 1 : j + 2] = dj * (1.0 - a), a * dj + (1.0 - a) * (1.0 - dj), a * (1.0 - dj)
    matrix[m, m - 1 :] = d[m - 1], 1.0 - d[m - 1]
    return MarkovChain(states=tuple(f"S{j}" for j in range(m + 1)), matrix=matrix)


def dense_first_passage_cdf(chain, horizon):
    """F(0..horizon) from the dense product: the distribution times the
    whole matrix, the target's row pinned absorbing, at every step."""
    matrix = chain.matrix.copy()
    matrix[-1] = 0.0
    matrix[-1, -1] = 1.0
    dist = np.eye(len(matrix))[0]
    cdf = np.zeros(horizon + 1)
    for step in range(1, horizon + 1):
        dist = dist @ matrix
        cdf[step] = dist[-1]
    return cdf


def full_cdf(chain, horizon):
    """F(0..horizon) as a list: ``_first_passage_cdf`` held at its last
    value past the fixed point where it stops."""
    cdf = list(_first_passage_cdf(chain, horizon))
    return cdf + cdf[-1:] * (horizon + 1 - len(cdf))


def rowwise_first_passage_cdf(chain, horizon):
    """F(0..horizon) from a plain-Python dense product taken row by row:
    row j of the matrix, weighted by the mass in S_j, is added to the
    next distribution for j = 0, 1, ..., the target's row pinned
    absorbing.  Python rounds every product and every sum on its own,
    so no fused multiply-add enters."""
    matrix = chain.matrix.tolist()
    n = len(matrix)
    matrix[-1] = [0.0] * (n - 1) + [1.0]
    dist = [1.0] + [0.0] * (n - 1)
    cdf = [0.0]
    for _ in range(horizon):
        new = [0.0] * n
        for mass, row in zip(dist, matrix):
            new = [x + mass * p for x, p in zip(new, row)]
        dist = new
        cdf.append(dist[-1])
    return cdf


def dense_solve_ttc(matrix):
    """t_0 of (I - Q) t = 1, Q the transient block of ``matrix``: the
    dense first-passage system, solved by Gaussian elimination in exact
    rational arithmetic.  (``np.linalg.solve`` is no reference here: on
    chains whose mean TTC reaches 1e5 it is off by up to 6e-12
    relative, and at 1e24 by a factor of 8e6.)"""
    m = len(matrix) - 1
    rows = [
        [Fraction(int(i == j)) - Fraction(matrix[i][j]) for j in range(m)] + [Fraction(1)]
        for i in range(m)
    ]
    for k in range(m):
        for i in range(k + 1, m):
            factor = rows[i][k] / rows[k][k]
            rows[i] = [x - factor * y for x, y in zip(rows[i], rows[k])]
    t = [Fraction(0)] * m
    for i in reversed(range(m)):
        t[i] = (rows[i][m] - sum(rows[i][j] * t[j] for j in range(i + 1, m))) / rows[i][i]
    return float(t[0])


class TestGeneratedChains:
    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(
        attack=st.lists(st.floats(0.01, 1.0), min_size=1, max_size=12),
        d=st.floats(0.0, 0.5),
        horizon=st.integers(1, 60),
        seed=st.integers(0, 2**32),
    )
    def test_simulation_invariants(self, attack, d, horizon, seed):
        chain = birth_death_chain(attack, d)
        trials = 5000
        report = simulate(chain, trials=trials, horizon=horizon, seed=seed)
        samples = report.ttc_samples
        assert report.hits <= trials
        assert samples.size == report.hits
        assert np.all(np.diff(samples) >= 0)
        assert np.all((samples >= 1) & (samples <= horizon))
        split = simulate(chain, trials=trials, horizon=horizon, seed=seed, workers=3)
        assert report.to_dict() == split.to_dict()
        assert np.array_equal(samples, split.ttc_samples)
        # The analytic sigma, floored at 1/trials: a p within rounding of
        # 0 or 1 has no spread to measure against.
        p = hit_probability_within(chain, horizon)
        sigma = max(math.sqrt(p * (1.0 - p) / trials), 1.0 / trials)
        assert abs(report.hit_fraction - p) < 5 * sigma

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(
        attack=st.lists(st.floats(0.01, 1.0), min_size=1, max_size=12),
        d=st.floats(0.0, 0.5),
        stuck=st.one_of(st.none(), st.integers(0, 11)),
        horizon=st.integers(0, 200),
    )
    def test_first_passage_analytics(self, attack, d, stuck, horizon):
        # ``stuck`` names a stage whose attack probability drops to 0.
        if stuck is not None and stuck < len(attack):
            attack[stuck] = 0.0
        chain = birth_death_chain(attack, d)
        forward = np.diag(chain.matrix, k=1)
        if np.all(forward > 0.0):
            ttc = mean_time_to_compromise(chain)
            assert math.isfinite(ttc)
            reference = dense_solve_ttc(chain.matrix.tolist())
            assert abs(ttc - reference) <= 1e-12 * reference
        else:
            with pytest.raises(UnreachableTargetError):
                mean_time_to_compromise(chain)
        cdf = _first_passage_cdf(chain, horizon)
        assert cdf[0] == 0.0 and np.all(np.diff(cdf) >= 0.0)
        assert cdf[-1] <= 1.0 + 1e-12
        assert 0.0 <= hit_probability_within(chain, horizon) == min(cdf[-1], 1.0) <= 1.0


class TestDenseReference:
    """The first-passage CDF against the dense product, whose bits vary
    with the BLAS kernel.  Each loop rounds each entry at most three
    times per step, and a stochastic matrix does not amplify earlier
    errors, so at step t the two differ by at most 6 * t * 2**-53, below
    1e-15 * t.  On the built-in paths the gap stays below 1e-15."""

    @pytest.mark.parametrize("d", [0.0, 0.1, 0.3, 0.5])
    def test_built_in_paths(self, model, d):
        config = replace(model.config, defence_probability=d)
        for path in model.paths:
            chain = build_chain(path, model, config)
            gap = np.subtract(full_cdf(chain, 1000), dense_first_passage_cdf(chain, 1000))
            assert np.all(np.abs(gap) <= 1e-15)

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(
        attack=st.lists(st.floats(0.01, 1.0), min_size=1, max_size=64),
        d=st.floats(0.0, 0.5),
        horizon=st.integers(1, 400),
    )
    def test_generated_paths(self, attack, d, horizon):
        chain = birth_death_chain(attack, d)
        gap = np.subtract(full_cdf(chain, horizon), dense_first_passage_cdf(chain, horizon))
        assert np.all(np.abs(gap) <= 1e-15 * np.arange(horizon + 1))


class TestRowwiseReference:
    """The first-passage CDF equals the row-by-row dense product bit for
    bit: each state's next mass adds its stay, forward and back inflows
    in the order of the rows, and adding an exact zero changes no bit."""

    @pytest.mark.parametrize("horizon", [8, 200, 1000])
    @pytest.mark.parametrize("d", [0.0, 0.1, 0.3, 0.5])
    def test_built_in_paths(self, model, d, horizon):
        config = replace(model.config, defence_probability=d)
        for path in model.paths:
            chain = build_chain(path, model, config)
            expected = rowwise_first_passage_cdf(chain, horizon)
            assert list(map(float.hex, full_cdf(chain, horizon))) == list(map(float.hex, expected))

    @pytest.mark.parametrize("m", range(2, 65, 2))
    def test_generated_paths(self, m):
        # One chain of m stages per case, with a horizon of 8, 200 or 1000.
        rng = random.Random(m)
        chain = birth_death_chain([rng.uniform(0.01, 1.0) for _ in range(m)], rng.uniform(0.0, 0.5))
        horizon = (8, 200, 1000)[m // 2 % 3]
        expected = rowwise_first_passage_cdf(chain, horizon)
        assert list(map(float.hex, full_cdf(chain, horizon))) == list(map(float.hex, expected))


@st.composite
def generated_models(draw):
    """One path of up to 64 stages, with a drawn attacker, origin and
    origin aliases, first stage index, and d constant or per stage.
    The score sources are the built-in vectors, the built-in score sets
    plus a generated one, or both; the vectors are scored with the
    default weight table or a generated one, and the source, rounding
    and probability law are drawn."""
    m = draw(st.integers(1, 64))
    stages = tuple(
        AttackStage(draw(st.sampled_from(ReferenceDomain)), draw(st.sampled_from(ViewDomain)),
                    "generated stage")
        for _ in range(m)
    )
    origins = draw(st.permutations(list(ReferenceDomain)))[: draw(st.integers(1, 3))]
    path = AttackPath(id="g", attacker=draw(st.sampled_from(Attacker)), origin=origins[0],
                      stages=stages, first_stage_index=draw(st.integers(1, 10)),
                      origin_aliases=tuple(origins[1:]))
    unit = st.floats(0.0, 1.0)
    d = draw(st.one_of(unit, st.lists(unit, min_size=m, max_size=m).map(tuple)))
    builtin = builtin_paper_model()
    kind = draw(st.sampled_from(["vectors", "score sets", "both"]))
    vectors = None if kind == "score sets" else builtin.vectors
    score_sets = {}
    if kind != "vectors":
        generated = ScoreSet("generated", {dom: draw(st.floats(0.0, 42.5)) for dom in ViewDomain})
        score_sets = {**builtin.score_sets, "generated": generated}
    table = DEFAULT_WEIGHT_TABLE
    if vectors is not None and draw(st.booleans()):
        table = WeightTable(
            weights={p: {label: draw(unit) for label in labels}
                     for p, labels in DEFAULT_WEIGHT_TABLE.weights.items()},
            impact_bias={label: (draw(unit), draw(unit), draw(unit))
                         for label in DEFAULT_WEIGHT_TABLE.impact_bias},
        )
    source = draw(st.sampled_from(["formula"] * (vectors is not None) + list(score_sets)))
    return ThreatModel(
        score_sets=score_sets,
        vectors=vectors,
        paths=(path,),
        config=replace(builtin.config, defence_probability=d, score_set=source,
                       rounding=draw(st.sampled_from(Rounding)),
                       probability_law=draw(st.sampled_from(ProbabilityLaw))),
        weight_table=table,
    )


@st.composite
def models_or_refusals(draw):
    """A generated model with the fields the value objects' rules govern
    drawn from values that break them too: one to three copies of its
    path, each with a drawn id, first stage index and origin aliases, the
    first stage's description, one more score set with a drawn name, and
    one vector label, kept or set to "Q", which no weight table here
    defines.  Gives the model, or the InvalidConfigError that refused it,
    and the field of the "Q" label (None if none was set)."""
    model = draw(generated_models())
    names = st.sampled_from(["1", "x", "", "formula"])
    path = model.paths[0]
    vectors, bad_label = model.vectors, None
    if vectors is not None and draw(st.booleans()):
        domain, p = draw(st.sampled_from(ViewDomain)), draw(st.sampled_from(PARAMETERS)).lower()
        vectors = {**vectors, domain: replace(vectors[domain], **{p: "Q"})}
        bad_label = ("vectors", domain.code, p)
    try:
        first = replace(path.stages[0], description=draw(st.sampled_from(["stage"] * 3 + [""])))
        copy = replace(path, stages=(first, *path.stages[1:]))
        paths = tuple(
            replace(copy, id=draw(names), first_stage_index=draw(st.sampled_from([1, 2, 10, 0])),
                    origin_aliases=tuple(draw(st.lists(st.sampled_from(ReferenceDomain),
                                                       max_size=1))))
            for _ in range(draw(st.integers(1, 3)))
        )
        extra = ScoreSet(draw(names), dict.fromkeys(ViewDomain, 1.0))
        return replace(model, paths=paths, score_sets={**model.score_sets, extra.name: extra},
                       vectors=vectors), bad_label
    except InvalidConfigError as exc:
        return exc, bad_label


# Each AnalysisConfig field: (values of its type that the built-in model
# accepts, values of other types).
_UNIT = st.one_of(st.floats(0.0, 1.0), st.sampled_from([0, 1]))
_POSITIVE = st.one_of(st.floats(0.01, 100.0), st.integers(1, 100))
_CONFIG_FIELDS = {
    "defence_probability": (st.one_of(_UNIT, st.lists(_UNIT, min_size=4, max_size=6).map(tuple)),
                            st.sampled_from([True, "0.1", [0.1], (0.1, True), None])),
    "exponent_coefficient": (_POSITIVE, st.sampled_from([True, "2", (2.0,), None])),
    "normalization": (_POSITIVE, st.sampled_from([False, "42.5", None])),
    "probability_law": (st.sampled_from(ProbabilityLaw), st.sampled_from(["linear", 0, None])),
    "defence_on_final_stage": (st.booleans(), st.sampled_from(["no", 1, None])),
    "score_set": (st.sampled_from(["paper-published", "legacy", "formula"]),
                  st.sampled_from([5, b"legacy", None])),
    "rounding": (st.sampled_from(Rounding), st.sampled_from(["paper", 1, None])),
}


@st.composite
def config_fields(draw):
    """Keyword arguments of an AnalysisConfig, a drawn few of them of
    another type than their field's, and the names of those few."""
    wrong = draw(st.sets(st.sampled_from(list(_CONFIG_FIELDS)), max_size=3))
    return {name: draw(values[name in wrong]) for name, values in _CONFIG_FIELDS.items()}, wrong


class TestGeneratedModels:
    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(model=generated_models())
    def test_document_round_trip(self, model):
        assert parse_model(serialize_model(model)) == model

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(drawn=models_or_refusals())
    def test_every_accepted_model_round_trips(self, drawn):
        # A model that breaks a rule is refused when it is built, so
        # serialize_model never writes a document that parse_model refuses.
        # A label its weight table lacks is refused at the label's field.
        model, bad_label = drawn
        if isinstance(model, InvalidConfigError):
            if str(model).startswith("unknown label"):
                assert (str(model), model.field) == ("unknown label 'Q'", bad_label)
        else:
            assert bad_label is None
            assert parse_model(serialize_model(model)) == model

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(fields=config_fields())
    def test_config_of_a_wrong_type_is_refused_and_every_other_round_trips(self, fields):
        values, wrong = fields
        try:
            config = AnalysisConfig(**values)
        except InvalidConfigError as exc:
            assert exc.field in wrong and str(exc).startswith(f"{exc.field}: expected ")
            return
        assert not wrong
        model = replace(builtin_paper_model(), config=config)
        assert parse_model(serialize_model(model)) == model

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(model=generated_models(), d=st.floats(0.0, 1.0), final=st.booleans())
    def test_results_grid(self, model, d, final):
        # A second path on the same origins shares every cell, after the first.
        path = model.paths[0]
        model = replace(model, paths=(path, replace(
            path, id="h", first_stage_index=path.first_stage_index + 1)))
        config = replace(model.config, defence_probability=d, defence_on_final_stage=final)
        grid = build_results_grid(model, config)
        assert grid == _grid(model, [math.prod(stage_forward_probabilities(p, model, config))
                                     for p in model.paths])
        assert set(grid) == {(path.attacker, origin) for origin in path.origins}
        assert all([cell.path_id for cell in cells] == ["g", "h"] for cells in grid.values())

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(model=generated_models())
    def test_chain_rows(self, model):
        path = model.paths[0]
        _, rows, _ = _chain_rows(path, model)
        for i, row in enumerate(rows):
            assert abs(sum(row) - 1.0) <= 1e-12
            assert all(0.0 <= value <= 1.0 for value in row)
            assert all(value == 0.0 for j, value in enumerate(row) if abs(i - j) > 1)
        attack = stage_attack_probabilities(path, model)
        cases = birth_death_chain(attack, model.config.defence_probability)
        assert cases.matrix.tolist() == rows
        chain = build_chain(path, model)
        assert chain.matrix.tolist() == rows

        out = io.StringIO()
        with tempfile.TemporaryDirectory() as tmp, redirect_stdout(out):
            document = Path(tmp, "model.json")
            document.write_text(serialize_model(model), encoding="utf-8")
            assert main(["matrix", "--id", "g", "--model", str(document),
                         "--format", "json"]) == 0
        printed = json.loads(out.getvalue())["forward_path_product"]
        assert printed.hex() == float(np.prod(chain.forward_probabilities())).hex()
