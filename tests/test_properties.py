"""Property tests over generated inputs (hypothesis, derandomized)."""

import io
import json
import math
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
    Attacker,
    AttackPath,
    AttackStage,
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
    builtin_paper_model,
    hit_probability_within,
    mean_time_to_compromise,
    parse_model,
    serialize_model,
    simulate,
    stage_attack_probabilities,
)
from riskctl.chain import _first_passage_cdf
from riskctl.cli import main
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


class TestGeneratedModels:
    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(model=generated_models())
    def test_document_round_trip(self, model):
        assert parse_model(serialize_model(model)) == model

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
