"""Correctness checks on what the CLI wrote.

Each check reads only the program's output text and returns a list of
problems; an empty list is a pass.
"""

from __future__ import annotations

import math

# Probabilities may differ from the reference sigmoid by a few ulps at most.
_PROB_REL_TOL = 4 * 2.0 ** -52


def sigmoid(z: float) -> float:
    if z >= 0.0:
        return 1.0 / (1.0 + math.exp(-z))
    e = math.exp(z)
    return e / (1.0 + e)


def _records(text: str) -> dict[str, str]:
    out = {}
    for line in text.splitlines():
        key, _, value = line.partition(" ")
        out[key] = value
    return out


def _number(records: dict[str, str], key: str, problems: list[str], kind=float):
    try:
        return kind(records[key])
    except KeyError:
        problems.append(f"missing {key} record")
    except ValueError:
        problems.append(f"{key} is not a {kind.__name__}: {records[key]!r}")
    return None


def _unit_interval(name: str, value: float, problems: list[str]) -> None:
    if not 0.0 <= value <= 1.0:
        problems.append(f"{name} {value!r} outside [0, 1]")


def check_score(text: str, ids: list[str], bias: float, explain: bool):
    """Score records: one row per document in corpus order, the decision
    exactly standardized >= bias, and probability = sigmoid(standardized - bias).

    Returns (problems, standardized scores in row order).
    """
    problems: list[str] = []
    lines = text.split("\n")
    if not text.endswith("\n") or not lines[0].startswith("# "):
        return ["missing header or trailing newline"], []
    columns = lines[0][2:].split("\t")
    need = ["doc_id", "standardized", "probability", "decision"]
    need += ["contributions"] if explain else []
    if any(c not in columns for c in need):
        return [f"header lacks one of {need}: {lines[0]!r}"], []
    at = {c: columns.index(c) for c in need}
    rows = lines[1:-1]
    if len(rows) != len(ids):
        problems.append(f"{len(rows)} rows for {len(ids)} documents")
    scores = []
    for n, (row, doc_id) in enumerate(zip(rows, ids), start=1):
        fields = row.split("\t")
        if len(fields) != len(columns):
            problems.append(f"row {n}: {len(fields)} fields, header has {len(columns)}")
            continue
        if fields[at["doc_id"]] != doc_id:
            problems.append(f"row {n}: doc_id {fields[at['doc_id']]!r}, expected {doc_id!r}")
        try:
            s = float(fields[at["standardized"]])
            prob = float(fields[at["probability"]])
        except ValueError:
            problems.append(f"row {n}: standardized or probability is not a number")
            continue
        scores.append(s)
        decision = fields[at["decision"]]
        if decision not in ("positive", "negative"):
            problems.append(f"row {n}: decision {decision!r}")
        elif (decision == "positive") != (s >= bias):
            problems.append(f"row {n}: {decision} but standardized {s!r} vs bias {bias!r}")
        if not math.isclose(prob, sigmoid(s - bias), rel_tol=_PROB_REL_TOL, abs_tol=0.0):
            problems.append(f"row {n}: probability {prob!r} != sigmoid({s!r} - {bias!r})")
    return problems, scores


def check_calibrate(text: str, target_fpr: float, negative_scores: list[float]) -> list[str]:
    """achieved_fpr <= target, and at most floor(target * n) negatives score at
    or above the reported bias (counted from their score records)."""
    problems: list[str] = []
    rec = _records(text)
    bias = _number(rec, "bias", problems)
    achieved = _number(rec, "achieved_fpr", problems)
    target = _number(rec, "target_fpr", problems)
    n = _number(rec, "n_negatives", problems, int)
    if problems:
        return problems
    if target != target_fpr:
        problems.append(f"target_fpr {target!r}, asked for {target_fpr!r}")
    if n != len(negative_scores):
        problems.append(f"n_negatives {n}, corpus has {len(negative_scores)}")
    if achieved > target_fpr:
        problems.append(f"achieved_fpr {achieved!r} > target_fpr {target_fpr!r}")
    above = sum(1 for s in negative_scores if s >= bias)
    budget = math.floor(target_fpr * len(negative_scores))
    if above > budget:
        problems.append(f"{above} negatives at or above bias {bias!r}, budget {budget}")
    return problems


def check_evaluate(text: str, n_positives: int, n_negatives: int) -> list[str]:
    problems: list[str] = []
    rec = _records(text)
    recall = _number(rec, "recall", problems)
    fpr = _number(rec, "fpr", problems)
    n_pos = _number(rec, "n_positives", problems, int)
    n_neg = _number(rec, "n_negatives", problems, int)
    if problems:
        return problems
    _unit_interval("recall", recall, problems)
    _unit_interval("fpr", fpr, problems)
    if (n_pos, n_neg) != (n_positives, n_negatives):
        problems.append(f"counts {(n_pos, n_neg)}, expected {(n_positives, n_negatives)}")
    return problems


def check_experiment(text: str, experiment: str, rows: list[str]) -> list[str]:
    """exp1/exp2 records parse, name the expected rows, and keep recalls and
    FPRs in [0, 1]."""
    problems: list[str] = []
    lines = text.splitlines()
    if not lines or lines[0] != f"report {experiment}":
        return [f"first record is not 'report {experiment}'"]
    seen = []
    for line in lines[1:]:
        key, _, rest = line.partition(" ")
        parts = rest.split(" ")
        try:
            if key == "category":
                seen.append(parts[0])
                fields = dict(zip(parts[1::2], parts[2::2]))
                for name in ("recall_a", "recall_b", "fpr_a", "fpr_b"):
                    if fields[name] != "na":
                        _unit_interval(f"{parts[0]} {name}", float(fields[name]), problems)
                if fields["fractional_change"] != "na":
                    float(fields["fractional_change"])
                int(fields["n_pos_a"])
                int(fields["n_neg"])
            elif key == "anova":
                fields = dict(zip(parts[0::2], parts[1::2]))
                float(fields["f_stat"])
                _unit_interval("anova p_value", float(fields["p_value"]), problems)
            elif key in ("k", "target_fpr"):
                float(rest)
            elif key == "aggregate":
                float(parts[1])
            elif key != "warning":
                problems.append(f"unknown record {line!r}")
        except (KeyError, IndexError, ValueError):
            problems.append(f"malformed record {line!r}")
    if seen != rows:
        problems.append(f"rows {seen}, expected {rows}")
    return problems
