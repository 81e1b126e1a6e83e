"""Concept selection: QFD weighting, Pugh screening/ranking, risk matrix."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ortrack import decision
from ortrack.decision import (
    DatumNotZeroError,
    DegenerateInputError,
    DimensionMismatchError,
    InvalidOptionError,
    KeyMismatchError,
    MorphMatrix,
    OutOfRangeError,
    QfdInput,
    RiskItem,
    mix_and_match,
    pugh_rank,
    pugh_screen,
    qfd_weights,
    risk_score,
    select_top_k,
    two_axis_plot_data,
)

# -- QFD


def test_single_need_single_characteristic():
    qfd = QfdInput(needs=[("n", 1.0)], characteristics=["c"], correlation=[[9]])
    assert qfd_weights(qfd) == {"c": 1.0}


def test_qfd_hand_arithmetic():
    # raw sums: 2*9 + 1*3 = 21 and 2*1 + 1*3 = 5
    qfd = QfdInput(needs=[("a", 2.0), ("b", 1.0)], characteristics=["c1", "c2"],
                   correlation=[[9, 1], [3, 3]])
    weights = qfd_weights(qfd)
    assert weights["c1"] == pytest.approx(21 / 26)
    assert weights["c2"] == pytest.approx(5 / 26)


def test_qfd_column_permutation_permutes_weights():
    base = QfdInput(needs=[("a", 2.0), ("b", 1.0)], characteristics=["c1", "c2"],
                    correlation=[[9, 1], [3, 3]])
    swapped = QfdInput(needs=[("a", 2.0), ("b", 1.0)], characteristics=["c2", "c1"],
                       correlation=[[1, 9], [3, 3]])
    w1, w2 = qfd_weights(base), qfd_weights(swapped)
    assert w1["c1"] == w2["c1"] and w1["c2"] == w2["c2"]


def test_qfd_degenerate_rejected():
    qfd = QfdInput(needs=[("a", 1.0)], characteristics=["c1", "c2"],
                   correlation=[[0, 0]])
    with pytest.raises(DegenerateInputError):
        qfd_weights(qfd)


def test_qfd_scale_enforced():
    with pytest.raises(DimensionMismatchError):
        QfdInput(needs=[("a", 1.0)], characteristics=["c"], correlation=[[2]])


def test_qfd_flags_dead_characteristics():
    qfd = QfdInput(needs=[("a", 1.0)], characteristics=["c1", "c2"],
                   correlation=[[9, 0]])
    assert qfd.flagged_characteristics() == ["c2"]


# -- top-k selection


def test_top_k_full_ordering():
    weights = {"a": 0.2, "b": 0.5, "c": 0.3}
    assert select_top_k(weights, 3) == ["b", "c", "a"]


def test_top_k_tie_keeps_declaration_order():
    weights = {"a": 0.25, "b": 0.5, "c": 0.25}
    assert select_top_k(weights, 3) == ["b", "a", "c"]


def test_top_k_beyond_length_rejected():
    with pytest.raises(DimensionMismatchError):
        select_top_k({"a": 1.0}, 2)


@pytest.mark.parametrize("k", [0, -1])
def test_top_k_below_one_rejected(k):
    with pytest.raises(DimensionMismatchError):
        select_top_k({"a": 1.0, "b": 0.5}, k)


@given(st.lists(st.floats(0, 1), min_size=1, max_size=10), st.data())
@settings(max_examples=300)
def test_top_k_prefix_property(values, data):
    weights = {f"c{i}": v for i, v in enumerate(values)}
    k = data.draw(st.integers(1, len(weights)))
    if k < len(weights):
        assert select_top_k(weights, k) == select_top_k(weights, k + 1)[:k]


# -- Pugh screening


def test_datum_survives_with_zero_score():
    assert pugh_screen({"base": [0, 0, 0], "worse": [-1, -1, 0]}, "base") == [("base", 0)]


def test_majority_negative_eliminated():
    survivors = dict(pugh_screen({"base": [0, 0, 0, 0, 0],
                                  "mixed": [-1, -1, -1, 0, 0],
                                  "better": [1, 0, 0, 0, -1]}, "base"))
    assert "mixed" not in survivors
    assert survivors == {"base": 0, "better": 0}


def test_datum_column_must_be_zero():
    with pytest.raises(DatumNotZeroError):
        pugh_screen({"base": [1, 0, 0], "other": [1, 0, 0]}, "base")


def test_screening_rejects_a_bad_datum_width_or_entry():
    with pytest.raises(DimensionMismatchError):
        pugh_screen({"base": [0, 0]}, "other")
    with pytest.raises(DimensionMismatchError):
        pugh_screen({"base": [0, 0], "short": [1]}, "base")
    with pytest.raises(DimensionMismatchError):
        pugh_screen({"base": [0, 0], "off-scale": [2, 0]}, "base")


def test_bundled_screening_drops_robot_concepts():
    scores = decision.load_example_screening()
    survivors = [c for c, _ in pugh_screen(scores, next(iter(scores)))]
    assert survivors == ["Dr. Tool", "Blue Tool", "Ultra Tool"]
    eliminated = {"Robi Tool", "Dr. Robi Tool", "Dr. RoBBi Tool", "BB Tool"}
    assert eliminated.isdisjoint(survivors)


# -- Pugh weighted ranking


def test_single_concept_ranks_first():
    assert pugh_rank({"only": [3.0]}, [1.0]) == [("only", 3.0)]


def test_dominating_concept_ranks_first():
    ranking = pugh_rank({"weak": [2, 3, 1], "strong": [3, 3, 2]}, [0.5, 0.3, 0.2])
    assert ranking[0][0] == "strong"


def test_rank_hand_computed_totals():
    # weights (5,4,3,2,1): A=51, B=52, C=52; tie keeps declaration order
    scores = {"A": [3, 4, 5, 2, 1], "B": [5, 2, 3, 4, 2], "C": [1, 5, 4, 5, 5]}
    assert pugh_rank(scores, [5, 4, 3, 2, 1]) == [("B", 52.0), ("C", 52.0), ("A", 51.0)]


def test_rank_requires_consistent_dimensions():
    with pytest.raises(DimensionMismatchError):
        pugh_rank({"A": [1.0]}, [0.5, 0.5])
    with pytest.raises(DimensionMismatchError):
        pugh_rank({"A": [1.0, 2.0], "B": [1.0]}, [0.5, 0.5])


@pytest.mark.parametrize("weight", [0.0, -0.5])
def test_rank_requires_positive_weights(weight):
    with pytest.raises(DimensionMismatchError):
        pugh_rank({"A": [1.0, 2.0]}, [0.5, weight])


# -- two-axis projection


def test_identical_totals_fall_on_diagonal():
    totals = {"A": 3.0, "B": 1.0, "C": 2.0}
    for _, x, y in two_axis_plot_data(totals, dict(totals)):
        assert x == y


def test_best_concept_hits_top_corner():
    tech = {"A": 10.0, "B": 4.0}
    qual = {"A": 7.0, "B": 2.0}
    points = {c: (x, y) for c, x, y in two_axis_plot_data(tech, qual)}
    assert points["A"] == (1.0, 1.0)


def test_plot_hand_normalization():
    tech = {"A": 10.0, "B": 6.0, "C": 2.0}
    qual = {"A": 4.0, "B": 8.0, "C": 0.0}
    points = {c: (x, y) for c, x, y in two_axis_plot_data(tech, qual)}
    assert points == {"A": (0.5, 1.0), "B": (1.0, 0.5), "C": (0.0, 0.0)}


def test_plot_rejects_mismatched_concepts():
    with pytest.raises(KeyMismatchError):
        two_axis_plot_data({"A": 1.0}, {"B": 1.0})


# -- risk matrix


@pytest.mark.parametrize("corner", ["need", "concept"])
def test_a_header_only_table_names_its_corner(corner):
    with pytest.raises(DimensionMismatchError, match=f"^{corner} CSV has a header and no rows"):
        decision.load_matrix_csv(f"{corner},c1\n\n", corner)


def test_risk_extremes():
    assert risk_score(RiskItem("minimal", 1, 1)) == (1, "Low")
    assert risk_score(RiskItem("maximal", 5, 5)) == (25, "High")


def test_risk_banding():
    assert risk_score(RiskItem("x", 3, 4)) == (12, "Medium")
    assert risk_score(RiskItem("x", 1, 4)) == (4, "Low")
    assert risk_score(RiskItem("x", 1, 5)) == (5, "Medium")
    assert risk_score(RiskItem("x", 3, 5)) == (15, "High")


def test_risk_bounds_enforced():
    with pytest.raises(OutOfRangeError):
        RiskItem("x", 0, 3)
    with pytest.raises(OutOfRangeError):
        RiskItem("x", 2, 6)


# -- morphological matrix


def small_matrix():
    return MorphMatrix(
        functions=["sense", "act"],
        options={"sense": ["rfid", "camera"], "act": ["cart", "robot"]})


def test_mix_and_match_appends_concept():
    matrix = small_matrix()
    concept = mix_and_match(matrix, "mix", {"sense": "rfid", "act": "robot"})
    assert matrix.concepts["mix"] is concept
    assert concept.selections == {"sense": "rfid", "act": "robot"}


def test_mix_and_match_missing_function_rejected():
    with pytest.raises(InvalidOptionError, match="act"):
        mix_and_match(small_matrix(), "m", {"sense": "rfid"})


def test_mix_and_match_unknown_option_rejected():
    with pytest.raises(InvalidOptionError, match="ultrasound"):
        mix_and_match(small_matrix(), "m", {"sense": "ultrasound", "act": "cart"})


def test_mix_and_match_identity():
    matrix = decision.load_example_morphology()
    original = matrix.concepts["Dr. Tool"]
    clone = mix_and_match(matrix, "clone", dict(original.selections))
    assert clone.selections == original.selections


def test_parent_rows_compose_into_bundled_mix():
    matrix = decision.load_example_morphology()
    dr_tool = matrix.concepts["Dr. Tool"].selections
    robi = matrix.concepts["Robi Tool"].selections
    combined = mix_and_match(matrix, "combo", {
        "Monitoring of medical equipment": robi["Monitoring of medical equipment"],
        "Identifying equipment in the patient cavity":
            dr_tool["Identifying equipment in the patient cavity"],
        "Providing alerts and indications": "robot-tablet-detector-lights",
        "Communicating with medical staff": robi["Communicating with medical staff"],
        "Task management and generating reports":
            dr_tool["Task management and generating reports"],
        "Saving data and history": dr_tool["Saving data and history"],
    })
    assert combined.selections == matrix.concepts["Dr. Robi Tool"].selections


# -- bundled worked example


def test_bundled_characteristic_table():
    table = decision.load_engineering_characteristics()
    by_name = {row["name"]: row for row in table}
    assert by_name["Detection Range"]["target"] == 0.9
    assert by_name["Detection Range"]["range"] == [0.2, 1.0]
    assert by_name["Reliability - Mean time between failures (MTBF)"]["target"] == 5184000
    assert by_name["Availability"]["target"] == 98
    assert len(table) == 13


# -- invariants (hypothesis)


@st.composite
def qfd_inputs(draw):
    n_needs = draw(st.integers(1, 5))
    n_chars = draw(st.integers(1, 6))
    needs = [(f"n{i}", float(draw(st.integers(1, 10)))) for i in range(n_needs)]
    correlation = [[draw(st.sampled_from([0, 1, 3, 9])) for _ in range(n_chars)]
                   for _ in range(n_needs)]
    return QfdInput(needs=needs, characteristics=[f"c{j}" for j in range(n_chars)],
                    correlation=correlation)


@given(qfd_inputs(), st.floats(0.1, 50))
@settings(max_examples=300)
def test_weights_normalized_and_scale_invariant(qfd, scale):
    try:
        weights = qfd_weights(qfd)
    except DegenerateInputError:
        return
    assert sum(weights.values()) == pytest.approx(1.0, abs=1e-12)
    scaled = qfd_weights(QfdInput(
        needs=[(n, imp * scale) for n, imp in qfd.needs],
        characteristics=qfd.characteristics, correlation=qfd.correlation))
    # strict orderings survive scaling; exact ties may settle either way
    for a in weights:
        for b in weights:
            if weights[a] < weights[b]:
                assert scaled[a] < scaled[b]


@st.composite
def weighted_matrices(draw):
    """(scores, weights) for 1..5 concepts over 1..5 criteria."""
    n_concepts = draw(st.integers(1, 5))
    n_criteria = draw(st.integers(1, 5))
    scores = {f"k{i}": [draw(st.integers(-5, 5)) for _ in range(n_criteria)]
              for i in range(n_concepts)}
    return scores, [draw(st.floats(0.1, 5)) for _ in range(n_criteria)]


@given(weighted_matrices(), st.floats(0.1, 20))
@settings(max_examples=300)
def test_rank_argmax_invariant_under_weight_scaling(matrix, scale):
    scores, weights = matrix
    ranking = pugh_rank(scores, weights)
    if len(ranking) > 1 and ranking[0][1] - ranking[1][1] <= 1e-9:
        return  # exact tie at the top: either order is a correct answer
    assert pugh_rank(scores, [w * scale for w in weights])[0][0] == ranking[0][0]


@given(weighted_matrices(), st.data())
@settings(max_examples=300)
def test_dominance_never_inverts(matrix, data):
    scores, weights = matrix
    base = data.draw(st.sampled_from(list(scores)))
    bumped = data.draw(st.integers(0, len(weights) - 1))
    augmented = dict(scores)
    augmented["dominator"] = [s + (1 if j == bumped else 0)
                              for j, s in enumerate(scores[base])]
    ranking = [c for c, _ in pugh_rank(augmented, weights)]
    assert ranking.index("dominator") < ranking.index(base)
