"""Tests for the CVSS-style scoring core."""

from itertools import permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riskctl.cvss import (
    DEFAULT_WEIGHT_TABLE,
    PARAMETERS,
    CvssVector,
    Rounding,
    WeightTable,
    impact_bias_weights,
    lookup_weight,
    max_total_score,
    round_half_up,
    score_breakdown,
)
from riskctl.errors import NotFoundError

# The four built-in view-domain vectors.
DATA = CvssVector(av="R", ac="H", a="N", ci="P", ii="C", ai="P", ib="I",
                  e="PoC", rl="TF", rc="UCB", cdp="H", td="M")
SOFTWARE = CvssVector(av="R", ac="H", a="R", ci="C", ii="C", ai="C", ib="A",
                      e="U", rl="OF", rc="UCF", cdp="H", td="L")
NETWORKING = CvssVector(av="R", ac="L", a="R", ci="P", ii="C", ai="P", ib="I",
                        e="F", rl="TF", rc="UCB", cdp="M", td="H")
HARDWARE = CvssVector(av="R", ac="H", a="R", ci="P", ii="P", ai="P", ib="N",
                      e="PoC", rl="OF", rc="UCF", cdp="M", td="L")

EXPECTED_DEFAULT_WEIGHTS = {
    "AV": {"L": 0.7, "R": 1.0},
    "AC": {"H": 0.8, "L": 1.0},
    "A": {"R": 0.6, "N": 1.0},
    "CI": {"N": 0.0, "P": 0.7, "C": 1.0},
    "II": {"N": 0.0, "P": 0.7, "C": 1.0},
    "AI": {"N": 0.0, "P": 0.7, "C": 1.0},
    "E": {"U": 0.85, "PoC": 0.9, "F": 0.95, "H": 1.0},
    "RL": {"OF": 0.87, "TF": 0.9, "W": 0.95, "U": 1.0},
    "RC": {"UCF": 0.9, "UCB": 0.95, "C": 1.0},
    "CDP": {"N": 0.0, "L": 0.1, "M": 0.3, "H": 0.5},
    "TD": {"N": 0.0, "L": 0.25, "M": 0.75, "H": 1.0},
}


class TestLookupWeight:
    def test_default_table_entries(self):
        for parameter, labels in EXPECTED_DEFAULT_WEIGHTS.items():
            for label, weight in labels.items():
                assert lookup_weight(parameter, label) == weight

    def test_spot_values(self):
        assert lookup_weight("AV", "R") == 1.0
        assert lookup_weight("CDP", "N") == 0.0

    def test_unknown_label(self):
        with pytest.raises(NotFoundError, match="label 'X' is not defined for parameter AC"):
            lookup_weight("AC", "X")

    def test_unknown_parameter(self):
        with pytest.raises(NotFoundError, match="unknown parameter 'ZZ'"):
            lookup_weight("ZZ", "L")

    def test_ib_is_not_scalar(self):
        with pytest.raises(NotFoundError, match="IB selects a bias triple, not a scalar weight"):
            lookup_weight("IB", "N")


class TestImpactBiasWeights:
    @pytest.mark.parametrize(
        "bias, triple",
        [
            ("N", (0.333, 0.333, 0.333)),
            ("C", (0.5, 0.25, 0.25)),
            ("I", (0.25, 0.5, 0.25)),
            ("A", (0.25, 0.25, 0.5)),
        ],
    )
    def test_triples(self, bias, triple):
        assert impact_bias_weights(bias) == triple

    def test_sums(self):
        # N is kept verbatim at 0.999; the directed settings sum to 1.
        assert sum(impact_bias_weights("N")) == pytest.approx(0.999, abs=1e-12)
        for bias in "CIA":
            assert sum(impact_bias_weights(bias)) == pytest.approx(1.0, abs=1e-12)

    def test_unknown(self):
        with pytest.raises(NotFoundError, match="label 'X' is not defined for parameter IB"):
            impact_bias_weights("X")


def raw(vector):
    """Unrounded components of ``vector`` under the default table."""
    return score_breakdown(vector, rounding=Rounding.RAW)


class TestBaseScore:
    def test_data_column(self):
        assert raw(DATA).base == pytest.approx(6.8, abs=1e-12)

    def test_software_column(self):
        assert raw(SOFTWARE).base == pytest.approx(4.8, abs=1e-12)

    def test_zero_impact(self):
        vector = CvssVector(av="R", ac="L", a="N", ci="N", ii="N", ai="N", ib="N",
                            e="H", rl="U", rc="C", cdp="H", td="H")
        assert raw(vector).base == 0.0

    def test_incomplete_vector(self):
        vector = CvssVector(av="", ac="H", a="N", ci="P", ii="C", ai="P", ib="I",
                            e="PoC", rl="TF", rc="UCB", cdp="H", td="M")
        with pytest.raises(NotFoundError, match="vector missing parameters: AV"):
            raw(vector)


class TestTemporalScore:
    def test_data_column(self):
        assert raw(DATA).temporal == pytest.approx(5.2326, abs=1e-9)
        assert round_half_up(raw(DATA).temporal) == 5.2

    def test_hardware_column_chains_unrounded_base(self):
        b = raw(HARDWARE)
        assert b.base == pytest.approx(3.35664, abs=1e-9)
        assert b.temporal == pytest.approx(2.3654, abs=5e-5)
        assert round_half_up(b.temporal) == 2.4

    def test_unity_multipliers(self):
        vector = CvssVector(av="R", ac="L", a="N", ci="C", ii="C", ai="C", ib="C",
                            e="H", rl="U", rc="C", cdp="N", td="N")
        assert raw(vector).temporal == raw(vector).base


class TestEnvironmentalScore:
    def test_data_column(self):
        assert raw(DATA).environmental == pytest.approx(5.712225, abs=1e-9)
        assert round_half_up(raw(DATA).environmental) == 5.7

    def test_zero_target_distribution(self):
        temporals = set()
        for ci, e in product("NPC", ("U", "H")):
            vector = CvssVector(av="R", ac="H", a="N", ci=ci, ii="C", ai="P", ib="C",
                                e=e, rl="TF", rc="UCB", cdp="H", td="N")
            temporals.add(raw(vector).temporal)
            assert raw(vector).environmental == 0.0
        assert len(temporals) == 6

    def test_networking_formula_value(self):
        # The formula yields 5.8997; the published table prints 5.3.  The
        # engine reports the formula value and leaves the published total
        # to the named score set.
        env = raw(NETWORKING).environmental
        assert env == pytest.approx(5.8997325, abs=1e-6)
        assert round_half_up(env) == 5.9


class TestScoreBreakdown:
    @pytest.mark.parametrize(
        "vector, expected",
        [
            (DATA, (6.8, 5.2, 5.7, 17.7)),
            (SOFTWARE, (4.8, 3.2, 1.6, 9.6)),
            (HARDWARE, (3.4, 2.4, 1.2, 7.0)),
            (NETWORKING, (5.1, 4.1, 5.9, 15.1)),
        ],
    )
    def test_paper_rounded_columns(self, vector, expected):
        b = score_breakdown(vector, rounding=Rounding.PAPER)
        assert (b.base, b.temporal, b.environmental) == pytest.approx(expected[:3], abs=1e-12)
        assert b.total == pytest.approx(expected[3], abs=1e-12)

    def test_raw_total_is_exact_sum(self):
        for vector in (DATA, SOFTWARE, NETWORKING, HARDWARE):
            b = raw(vector)
            assert b.total == b.base + b.temporal + b.environmental

    @pytest.mark.parametrize(
        "labels, reported",
        [
            ({"ai": "X", "e": "X"}, "parameter AI"),
            ({"ib": "X", "e": "X"}, "parameter IB"),
            ({"e": "X", "td": "X"}, "parameter E"),
        ],
    )
    def test_first_unknown_label_in_parameter_order(self, labels, reported):
        vector = CvssVector(**{**DATA.to_dict(), **labels})
        with pytest.raises(NotFoundError, match=reported):
            raw(vector)

    def test_temporal_never_exceeds_base(self):
        # Exhaustive over every complete vector (fixed env labels; they
        # do not affect base or temporal).
        w = EXPECTED_DEFAULT_WEIGHTS
        combos = product(w["AV"], w["AC"], w["A"], w["CI"], w["II"], w["AI"],
                         "NCIA", w["E"], w["RL"], w["RC"])
        for av, ac, a, ci, ii, ai, ib, e, rl, rc in combos:
            vector = CvssVector(av=av, ac=ac, a=a, ci=ci, ii=ii, ai=ai, ib=ib,
                                e=e, rl=rl, rc=rc, cdp="H", td="H")
            b = raw(vector)
            assert 0.0 <= b.base <= 15.0
            assert b.temporal <= b.base + 1e-12

    def test_neutral_bias_is_permutation_invariant(self):
        for ci, ii, ai in product("NPC", repeat=3):
            reference = None
            for p_ci, p_ii, p_ai in permutations((ci, ii, ai)):
                vector = CvssVector(av="R", ac="H", a="N", ci=p_ci, ii=p_ii,
                                    ai=p_ai, ib="N", e="PoC", rl="TF", rc="UCB",
                                    cdp="H", td="M")
                value = raw(vector).base
                if reference is None:
                    reference = value
                assert value == pytest.approx(reference, abs=1e-12)

    def test_environmental_monotone_in_cdp(self):
        by_weight = sorted(EXPECTED_DEFAULT_WEIGHTS["CDP"], key=lookup_weight_of_cdp)
        previous = -1.0
        for cdp in by_weight:
            vector = CvssVector(av="R", ac="H", a="N", ci="P", ii="C", ai="P",
                                ib="I", e="PoC", rl="TF", rc="UCB", cdp=cdp, td="M")
            env = score_breakdown(vector, rounding=Rounding.RAW).environmental
            assert env >= previous - 1e-12
            previous = env

    def test_environmental_linear_in_td(self):
        ratios = set()
        for td in ("L", "M", "H"):
            vector = CvssVector(av="R", ac="H", a="N", ci="P", ii="C", ai="P",
                                ib="I", e="PoC", rl="TF", rc="UCB", cdp="H", td=td)
            env = score_breakdown(vector, rounding=Rounding.RAW).environmental
            ratios.add(round(env / EXPECTED_DEFAULT_WEIGHTS["TD"][td], 9))
        assert len(ratios) == 1


def lookup_weight_of_cdp(label):
    return EXPECTED_DEFAULT_WEIGHTS["CDP"][label]


class TestRoundHalfUp:
    def test_half_goes_up(self):
        assert round_half_up(2.35) == 2.4
        assert round_half_up(2.25) == 2.3
        assert round_half_up(0.05) == 0.1

    def test_plain_cases(self):
        assert round_half_up(5.2326) == 5.2
        assert round_half_up(1.163949) == 1.2
        assert round_half_up(7.0) == 7.0

    def test_other_precision(self):
        assert round_half_up(0.123456, 4) == 0.1235


class TestMaxTotalScore:
    def test_default_is_42_5_exactly(self):
        assert max_total_score() == 42.5

    def test_component_derivation(self):
        # Independent per-parameter maximization: base 15, temporal 15,
        # environmental (15 + (10 - 15) * 0.5) * 1.0 = 12.5.
        w = EXPECTED_DEFAULT_WEIGHTS
        bias_max = 0.5
        base_max = 10 * max(w["AV"].values()) * max(w["AC"].values()) * max(w["A"].values())
        base_max *= 3 * max(w["CI"].values()) * bias_max
        temporal_max = base_max * max(w["E"].values()) * max(w["RL"].values()) * max(w["RC"].values())
        env_max = (temporal_max + (10 - temporal_max) * max(w["CDP"].values())) * max(w["TD"].values())
        assert (base_max, temporal_max, env_max) == (15.0, 15.0, 12.5)
        assert max_total_score() == base_max + temporal_max + env_max

    def test_recomputes_for_custom_table(self):
        # Halve the access-vector and exploitability weights and re-run
        # the same maximization by hand on the raw dicts.
        weights = {k: dict(v) for k, v in EXPECTED_DEFAULT_WEIGHTS.items()}
        weights["AV"] = {k: v / 2 for k, v in weights["AV"].items()}
        weights["E"] = {k: v / 2 for k, v in weights["E"].items()}
        bias = {"N": (0.333, 0.333, 0.333), "C": (0.5, 0.25, 0.25),
                "I": (0.25, 0.5, 0.25), "A": (0.25, 0.25, 0.5)}
        table = WeightTable(weights=weights, impact_bias=bias)

        base_max = 10 * 0.5 * 1.0 * 1.0 * (1.0 * 0.5 + 1.0 * 0.5 + 1.0 * 0.5)
        temporal_max = base_max * 0.5 * 1.0 * 1.0
        env_max = (temporal_max + (10 - temporal_max) * 0.5) * 1.0
        assert max_total_score(table) == pytest.approx(
            base_max + temporal_max + env_max, abs=1e-12
        )

    def test_rejects_weights_out_of_range(self):
        weights = {k: dict(v) for k, v in EXPECTED_DEFAULT_WEIGHTS.items()}
        weights["AV"]["R"] = 1.2
        with pytest.raises(ValueError):
            WeightTable(weights=weights, impact_bias=dict(DEFAULT_WEIGHT_TABLE.impact_bias))


# ---------------------------------------------------------------------------
# The one formula, over generated tables and vectors
# ---------------------------------------------------------------------------

def reference_components(av, ac, a, ci, ii, ai, ib, e, rl, rc, cdp, td):
    """Base, temporal and environmental written out from the CVSS v1
    scheme, one weight per parameter in ``PARAMETERS`` order (IB the
    (CIB, IIB, AIB) triple)."""
    cib, iib, aib = ib
    base = 10.0 * av * ac * a * (ci * cib + ii * iib + ai * aib)
    temporal = base * e * rl * rc
    return base, temporal, (temporal + (10.0 - temporal) * cdp) * td


def bits(values):
    return [float(v).hex() for v in values]


SCALAR_PARAMETERS = [p for p in PARAMETERS if p != "IB"]
# Quarter weights make components that end in 5 at the second decimal,
# where half-up rounding differs from round-half-even.
weights = st.one_of(st.sampled_from((0.0, 0.25, 0.5, 0.75, 1.0)),
                    st.floats(min_value=0.0, max_value=1.0))


def label_tables(values):
    return st.dictionaries(st.sampled_from(("L0", "L1", "L2", "L3")), values,
                           min_size=1, max_size=4)


weight_tables = st.builds(
    WeightTable,
    weights=st.fixed_dictionaries({p: label_tables(weights) for p in SCALAR_PARAMETERS}),
    impact_bias=label_tables(st.tuples(weights, weights, weights)),
)


@st.composite
def tables_and_vectors(draw):
    table = draw(weight_tables)
    labels = {p.lower(): draw(st.sampled_from(sorted(table.weights[p])))
              for p in SCALAR_PARAMETERS}
    labels["ib"] = draw(st.sampled_from(sorted(table.impact_bias)))
    return table, CvssVector(**labels)


class TestSharedFormula:
    @settings(derandomize=True, max_examples=80, deadline=None)
    @given(tables_and_vectors())
    def test_breakdown_is_the_reference_formula(self, case):
        table, vector = case
        expected = reference_components(*[
            table.impact_bias[vector.ib] if p == "IB" else table.weights[p][vector.label(p)]
            for p in PARAMETERS
        ])
        b = score_breakdown(vector, table, Rounding.RAW)
        assert bits((b.base, b.temporal, b.environmental)) == bits(expected)
        assert bits([b.total]) == bits([expected[0] + expected[1] + expected[2]])
        rounded = [round_half_up(x) for x in expected]
        p = score_breakdown(vector, table, Rounding.PAPER)
        assert bits((p.base, p.temporal, p.environmental)) == bits(rounded)
        assert bits([p.total]) == bits([rounded[0] + rounded[1] + rounded[2]])

    @settings(derandomize=True, max_examples=80, deadline=None)
    @given(weight_tables)
    def test_max_total_is_the_reference_formula_at_the_maxima(self, table):
        maxima = [
            tuple(max(t[i] for t in table.impact_bias.values()) for i in range(3))
            if p == "IB" else max(table.weights[p].values())
            for p in PARAMETERS
        ]
        base, temporal, env = reference_components(*maxima)
        assert bits([max_total_score(table)]) == bits([base + temporal + env])
