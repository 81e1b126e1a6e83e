"""Concept-selection toolkit: morphological matrix, QFD, Pugh, risk matrix.

The pipeline mirrors a standard systems-engineering concept selection:
compose candidate concepts from a functions-by-options grid, weight the
engineering characteristics by how strongly they correlate with weighted
stakeholder needs (QFD, 0/1/3/9 scale), screen concepts against a datum
(Pugh, -1/0/+1), then rank the survivors by weighted scores. A two-axis
projection (qualitative vs technical) and a 5x5 likelihood-consequence
risk score round out the kit.

Everything here is exact integer/fraction arithmetic until the final
normalizations, and all orderings are stable: ties keep declaration order.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field
from importlib import resources

QFD_SCALE = (0, 1, 3, 9)


class DegenerateInputError(ValueError):
    """All correlations are zero; no weights can be derived."""


class DatumNotZeroError(ValueError):
    """The datum row of a screening matrix must be all zeros."""


class DimensionMismatchError(ValueError):
    """Matrix dimensions disagree with the declared criteria or weights."""


class KeyMismatchError(ValueError):
    """Two rankings do not cover the same concepts."""


class OutOfRangeError(ValueError):
    """A likelihood or consequence is outside the 1..5 grid."""


class InvalidOptionError(ValueError):
    """A concept selection is missing a function or picks an unknown option."""


# --------------------------------------------------------------------------
# Morphological matrix


@dataclass
class Concept:
    name: str
    selections: dict[str, str]  # function -> chosen option


@dataclass
class MorphMatrix:
    """Functions (rows) by solution options (cells); concepts pick one per row."""

    functions: list[str]
    options: dict[str, list[str]]
    concepts: dict[str, Concept] = field(default_factory=dict)


def mix_and_match(matrix: MorphMatrix, name: str,
                  selections: dict[str, str]) -> Concept:
    """Compose a new concept by picking one option per function."""
    for function in matrix.functions:
        choice = selections.get(function)
        if choice is None:
            raise InvalidOptionError(f"no option selected for {function!r}")
        if choice not in matrix.options[function]:
            raise InvalidOptionError(
                f"{choice!r} is not an option for {function!r}")
    extra = set(selections) - set(matrix.functions)
    if extra:
        raise InvalidOptionError(f"unknown functions: {sorted(extra)}")
    concept = Concept(name=name, selections=dict(selections))
    matrix.concepts[name] = concept
    return concept


# --------------------------------------------------------------------------
# QFD weighting


@dataclass
class QfdInput:
    """Stakeholder needs vs engineering characteristics correlation."""

    needs: list[tuple[str, float]]
    characteristics: list[str]
    correlation: list[list[float]]  # rows follow needs, columns characteristics

    def __post_init__(self) -> None:
        if len(self.correlation) != len(self.needs):
            raise DimensionMismatchError(
                f"{len(self.correlation)} correlation rows for {len(self.needs)} needs")
        for name, importance in self.needs:
            if importance <= 0:
                raise DimensionMismatchError(f"need {name!r} has importance <= 0")
        for i, row in enumerate(self.correlation):
            if len(row) != len(self.characteristics):
                raise DimensionMismatchError(
                    f"correlation row {i} has {len(row)} entries, "
                    f"expected {len(self.characteristics)}")
            for value in row:
                if value not in QFD_SCALE:
                    raise DimensionMismatchError(
                        f"correlation entries must be one of {QFD_SCALE}, got {value}")

    def flagged_characteristics(self) -> list[str]:
        """Characteristics no need correlates with at all."""
        flagged = []
        for j, name in enumerate(self.characteristics):
            if all(row[j] == 0 for row in self.correlation):
                flagged.append(name)
        return flagged


def qfd_weights(qfd: QfdInput) -> dict[str, float]:
    """Importance-weighted column sums, normalized to sum to one."""
    raw = []
    for j, _ in enumerate(qfd.characteristics):
        raw.append(sum(importance * qfd.correlation[i][j]
                       for i, (_, importance) in enumerate(qfd.needs)))
    total = sum(raw)
    if total == 0:
        raise DegenerateInputError("all correlations are zero")
    return {name: value / total for name, value in zip(qfd.characteristics, raw)}


def select_top_k(weights: dict[str, float], k: int) -> list[str]:
    """Top-k characteristic names by weight; ties keep declaration order."""
    if not 1 <= k <= len(weights):
        raise DimensionMismatchError(f"k={k} is not in 1..{len(weights)} characteristics")
    ordered = sorted(weights, key=lambda name: -weights[name])
    return ordered[:k]


# --------------------------------------------------------------------------
# Pugh screening and weighted ranking


def _check_widths(scores: dict[str, list[float]], width: int) -> None:
    for concept, row in scores.items():
        if len(row) != width:
            raise DimensionMismatchError(f"concept {concept!r} needs {width} scores")


def pugh_screen(scores: dict[str, list[float]], datum: str) -> list[tuple[str, int]]:
    """Net datum-relative score per concept, in ``scores`` order; net below zero
    eliminates. Every entry is -1, 0 or +1, and the datum's row is all zeros."""
    if datum not in scores:
        raise DimensionMismatchError(f"datum {datum!r} not a concept")
    _check_widths(scores, len(scores[datum]))
    bad = [value for row in scores.values() for value in row if value not in (-1, 0, 1)]
    if bad:
        raise DimensionMismatchError(f"screening entries must be -1, 0 or +1, got {bad[0]}")
    if any(scores[datum]):
        raise DatumNotZeroError(f"datum {datum!r} row must be all zeros")
    nets = [(concept, int(sum(row))) for concept, row in scores.items()]
    return [(concept, net) for concept, net in nets if net >= 0]


def pugh_rank(scores: dict[str, list[float]], weights: list[float]) -> list[tuple[str, float]]:
    """Weighted totals, one positive weight per criterion, best first; ties keep
    ``scores`` order."""
    _check_widths(scores, len(weights))
    if any(w <= 0 for w in weights):
        raise DimensionMismatchError("weights must be positive")
    totals = [(concept, sum(w * s for w, s in zip(weights, row)))
              for concept, row in scores.items()]
    return sorted(totals, key=lambda pair: -pair[1])


def two_axis_plot_data(technical_totals: dict[str, float],
                       qualitative_totals: dict[str, float],
                       ) -> list[tuple[str, float, float]]:
    """Plot-ready (concept, qualitative-x, technical-y), min-max scaled to [0, 1]."""
    if set(technical_totals) != set(qualitative_totals):
        raise KeyMismatchError("technical and qualitative rankings cover "
                               "different concepts")

    def scale(values: dict[str, float]) -> dict[str, float]:
        lo, hi = min(values.values()), max(values.values())
        if hi == lo:
            return {name: 1.0 for name in values}
        return {name: (v - lo) / (hi - lo) for name, v in values.items()}

    xs = scale(qualitative_totals)
    ys = scale(technical_totals)
    return [(name, xs[name], ys[name]) for name in technical_totals]


# --------------------------------------------------------------------------
# Risk matrix


@dataclass(frozen=True)
class RiskItem:
    description: str
    likelihood: int
    consequence: int
    mitigation: str = ""

    def __post_init__(self) -> None:
        for label, value in (("likelihood", self.likelihood),
                             ("consequence", self.consequence)):
            if not isinstance(value, int) or not 1 <= value <= 5:
                raise OutOfRangeError(f"{label} must be an integer in 1..5, got {value}")


#: 5x5 grid banding; products 13 and 14 are unreachable on an integer grid.
RISK_LOW_MAX = 4
RISK_MEDIUM_MAX = 12


def risk_score(item: RiskItem) -> tuple[int, str]:
    """Likelihood times consequence, banded Low / Medium / High."""
    score = item.likelihood * item.consequence
    if score <= RISK_LOW_MAX:
        band = "Low"
    elif score <= RISK_MEDIUM_MAX:
        band = "Medium"
    else:
        band = "High"
    return score, band


# --------------------------------------------------------------------------
# CSV ingestion


def _finite(text: str, corner: str, row: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise DimensionMismatchError(
            f"{corner} CSV row {row!r} has {text.strip()!r}, not a finite number")
    return value


def _check_name(corner: str, what: str, name: str, seen: list[str]) -> None:
    if not name or name in seen:
        raise DimensionMismatchError(f"{corner} CSV has a blank or repeated {what} name: {name!r}")


def load_matrix_csv(text: str, corner: str) -> tuple[list[str], list[str], list[list[float]]]:
    """A labeled matrix: a header of ``corner`` (any case) then unique column names,
    then at least one uniquely named row of finite numbers per line; blank lines are skipped."""
    reader = csv.reader(io.StringIO(text))
    header = [h.strip() for h in next(reader, [])]
    if len(header) < 2 or header[0].lower() != corner:
        raise DimensionMismatchError(f"{corner} CSV header must be {corner!r} then column names")
    columns = header[1:]
    for i, name in enumerate(columns):
        _check_name(corner, "column", name, columns[:i])
    rows, values = [], []
    for row in reader:
        if not any(cell.strip() for cell in row):
            continue
        name = row[0].strip()
        _check_name(corner, "row", name, rows)
        if len(row) - 1 != len(columns):
            raise DimensionMismatchError(
                f"{corner} CSV row {name!r} has {len(row) - 1} values, expected {len(columns)}")
        rows.append(name)
        values.append([_finite(v, corner, name) for v in row[1:]])
    if not rows:
        raise DimensionMismatchError(f"{corner} CSV has a header and no rows")
    return rows, columns, values


def qfd_from_csv(needs_text: str, correlation_text: str) -> QfdInput:
    """Join a ``need,importance`` file with a needs-by-characteristics correlation file."""
    names, columns, importance = load_matrix_csv(needs_text, "need")
    if [column.lower() for column in columns] != ["importance"]:
        raise DimensionMismatchError("needs CSV header must be exactly 'need,importance'")
    by_name = {name: row[0] for name, row in zip(names, importance)}
    row_names, characteristics, correlation = load_matrix_csv(correlation_text, "need")
    if set(row_names) != set(by_name):
        raise DimensionMismatchError("correlation rows do not match the declared needs")
    return QfdInput(needs=[(name, by_name[name]) for name in row_names],
                    characteristics=characteristics, correlation=correlation)


def pugh_rank_from_csv(scores_text: str, weights: dict[str, float]) -> list[tuple[str, float]]:
    """``pugh_rank`` of a concepts-by-characteristics scores file under QFD weights."""
    concepts, criteria, values = load_matrix_csv(scores_text, "concept")
    if criteria != list(weights):
        raise DimensionMismatchError("score columns do not match the QFD characteristics")
    return pugh_rank(dict(zip(concepts, values)), list(weights.values()))


def qualitative_totals_from_csv(text: str) -> dict[str, float]:
    """Equal-weight qualitative totals: each concept's row sum."""
    concepts, _criteria, values = load_matrix_csv(text, "concept")
    return {c: sum(row) for c, row in zip(concepts, values)}


# --------------------------------------------------------------------------
# Bundled worked example (reconstruction; the source material publishes the
# characteristic table but not the underlying correlation or score values)


def _data_text(name: str) -> str:
    return resources.files("ortrack").joinpath("data").joinpath(name).read_text(encoding="utf-8")


def load_engineering_characteristics() -> list[dict]:
    """The bundled characteristic table: name, range, target, unit."""
    return json.loads(_data_text("engineering_characteristics.json"))


def load_example_screening() -> dict[str, list[float]]:
    """The bundled screening scores; the first concept is the datum."""
    concepts, _criteria, values = load_matrix_csv(
        _data_text("concept_eval/screening.csv"), "concept")
    return dict(zip(concepts, values))


def load_example_morphology() -> MorphMatrix:
    obj = json.loads(_data_text("concept_eval/morphological_matrix.json"))
    matrix = MorphMatrix(functions=obj["functions"], options=obj["options"])
    for name, selections in obj["concepts"].items():
        mix_and_match(matrix, name, selections)
    return matrix
