"""Self-tests of the benchmark: python3 -m pytest perfbench"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

import checks
import run
import tracer
import workloads

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

SMALL = {
    "bulk-500kw": dict(n_docs=60, n_exp_docs=40, n_exp_positives=10),
    "unicode-longdoc-30kw": dict(n_docs=30, doc_tokens=300, n_exp_docs=20, n_exp_positives=8),
    "experiments": dict(n_background=120, n_negatives=120, n_positives=20),
}


@pytest.fixture
def small_workloads(monkeypatch):
    for name, sizes in SMALL.items():
        monkeypatch.setitem(workloads.WORKLOADS, name,
                            dataclasses.replace(workloads.WORKLOADS[name], **sizes))


def tree_digest(root: Path) -> str:
    h = hashlib.sha256()
    for p in sorted(root.rglob("*")):
        if p.is_file():
            h.update(p.relative_to(root).as_posix().encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(SMALL))
def test_generator_is_deterministic_per_seed(small_workloads, tmp_path, name):
    first = workloads.generate(name, 7, tmp_path / "a")
    again = workloads.generate(name, 7, tmp_path / "b")
    other = workloads.generate(name, 8, tmp_path / "c")
    assert tree_digest(tmp_path / "a") == tree_digest(tmp_path / "b")
    assert tree_digest(tmp_path / "a") != tree_digest(tmp_path / "c")
    assert first["input"]["ids"] == again["input"]["ids"]


def test_unicode_workload_is_mostly_but_not_only_ascii(small_workloads, tmp_path):
    m = workloads.generate("unicode-longdoc-30kw", 3, tmp_path)
    text = " ".join(p.read_text(encoding="utf-8")
                    for p in Path(m["background"]["path"]).rglob("*.txt"))
    words = text.split()
    marked = sum(1 for w in words if not (w.isascii() and w.isalnum()))
    assert 0.2 < marked / len(words) < 0.4


def test_self_times_on_a_hand_built_tree():
    spans = [
        ["cli.main", 0.0, 10.0, -1, 1],
        ["text.load_corpus", 1.0, 4.0, 0, 1],
        ["text.tokenize", 2.0, 3.0, 1, 1],
        ["glossary.match", 5.0, 9.0, 0, 1],
        ["glossary.match", 6.0, 8.0, 3, 1],
        ["cli.main", 20.0, 21.5, -1, 2],
    ]
    assert tracer.self_times(spans) == {
        "cli.main": 3.0 + 1.5,
        "text.load_corpus": 2.0,
        "text.tokenize": 1.0,
        "glossary.match": 2.0 + 2.0,
    }
    assert tracer.root_time(spans) == 11.5 == sum(tracer.self_times(spans).values())


def test_tracer_nests_spans_and_restores_originals():
    leaf = types.ModuleType("leaf")
    leaf.work = lambda n: list(range(n))
    top = types.ModuleType("top")
    top.work = lambda n: leaf.work(n) + leaf.work(n)
    pkg = types.SimpleNamespace(leaf=leaf, top=top)
    originals = (top.work, leaf.work)
    tr = tracer.Tracer()
    tr.install(pkg, [("top", "work", "cli.main", None),
                     ("leaf", "work", "text.tokenize", tracer._count_tokens),
                     ("gone", "work", "text.load_corpus", None)])
    try:
        assert top.work(3) == [0, 1, 2, 0, 1, 2]
    finally:
        tr.uninstall()
    assert (top.work, leaf.work) == originals
    assert [(s[0], s[3]) for s in tr.spans] == [("cli.main", -1), ("text.tokenize", 0),
                                                 ("text.tokenize", 0)]
    assert tr.counters == {"text.tokenize.calls": 2, "text.tokenize.tokens": 6}
    assert tr.missing == ["gone.work"]


def score_text(rows, bias):
    lines = ["# doc_id\tword_count\tL\ttfidf_over_L\tentropy\traw_score\tstandardized"
             "\tprobability\tdecision"]
    for doc_id, s in rows:
        decision = "positive" if s >= bias else "negative"
        lines.append(f"{doc_id}\t10\t100\t0\t0\t0\t{s!r}\t{checks.sigmoid(s - bias)!r}\t{decision}")
    return "\n".join(lines) + "\n"


def test_checker_accepts_consistent_score_records():
    text = score_text([("a", -1.5), ("b", 2.0), ("c", 3.25)], bias=2.0)
    assert checks.check_score(text, ["a", "b", "c"], 2.0, False) == ([], [-1.5, 2.0, 3.25])


@pytest.mark.parametrize("tamper", [
    lambda t: t.replace("\tpositive", "\tnegative", 1),
    lambda t: t.replace("3.25\t", "1.25\t", 1),
    lambda t: t.replace("c\t", "d\t", 1),
    lambda t: t.rsplit("\n", 2)[0] + "\n",
])
def test_checker_flags_tampered_score_records(tamper):
    text = tamper(score_text([("a", -1.5), ("b", 2.0), ("c", 3.25)], bias=2.0))
    assert checks.check_score(text, ["a", "b", "c"], 2.0, False)[0]


def calibrate_text(bias, achieved, target, n):
    return f"bias {bias!r}\nachieved_fpr {achieved!r}\ntarget_fpr {target!r}\nn_negatives {n}\n"


def test_checker_flags_calibration_above_target():
    scores = [float(i) for i in range(1000)]
    assert checks.check_calibrate(calibrate_text(997.0, 0.003, 0.003, 1000), 0.003, scores) == []
    # The reported rate is above the target.
    assert checks.check_calibrate(calibrate_text(997.0, 0.004, 0.003, 1000), 0.003, scores)
    # The rate is reported within the target but four scores reach the bias.
    assert checks.check_calibrate(calibrate_text(996.0, 0.003, 0.003, 1000), 0.003, scores)


def test_checker_flags_out_of_range_recall():
    ok = "recall 0.5\nn_positives 4\nfpr 0\nn_negatives 9\n"
    assert checks.check_evaluate(ok, 4, 9) == []
    assert checks.check_evaluate(ok.replace("0.5", "1.5"), 4, 9)
    exp = ("report exp1\nk 100\ntarget_fpr 0.01\ncategory c0 recall_a 0.5 recall_b 1.25 "
           "fpr_a 0 fpr_b 0 n_pos_a 4 n_pos_b 4 n_neg 9 fractional_change 1.5\n")
    assert checks.check_experiment(exp, "exp1", ["c0"]) == ["c0 recall_b 1.25 outside [0, 1]"]


def test_benchmark_json_matches_the_workload_definitions():
    assert [(w["name"], w["why"]) for w in SPEC["workloads"]] == [
        (name, spec.why) for name, spec in workloads.WORKLOADS.items()]


def test_every_per_layer_metric_has_its_end_to_end_targets():
    targets = json.loads((run.ROOT / "perfbench" / "layer_targets.json").read_text())["targets"]
    assert list(targets) == [m["name"] for m in SPEC["per_layer"]]
    end_to_end = {m["name"] for m in SPEC["end_to_end"]}
    names = set(workloads.WORKLOADS)
    for target in targets.values():
        assert set(target["moves"]) <= end_to_end
        assert set(target["workloads"]) | set(target.get("unchanged", [])) <= names


@pytest.fixture
def small_bench(small_workloads, tmp_path):
    sys.path.insert(0, str(run.SRC))
    import entropy_classifier
    import entropy_classifier.cli as cli

    def make(name):
        bench = run.Bench(cli, workloads.generate(name, 5, tmp_path / name))
        bench.check_outputs(bench.run_pass())
        return bench

    yield make, entropy_classifier
    sys.path.remove(str(run.SRC))


@pytest.mark.parametrize("name", sorted(SMALL))
def test_every_end_to_end_metric_is_reported(small_bench, name):
    make, _ = small_bench
    bench = make(name)
    values, info = run.measure(bench, 0.0)
    assert set(values) == {m["name"] for m in SPEC["end_to_end"]}
    assert set(info["scaled"]) == set(values) - {"peak_rss_mb"}
    assert all(v > 0 for v in values.values())
    assert bench.failed == 0, bench.problems


def test_traced_pass_reports_every_layer_and_accounts_for_wall_time(small_bench, tmp_path):
    make, pkg = small_bench
    bench = make("experiments")
    values, info = run.trace(bench, pkg, 0.0, tmp_path / "spans.jsonl.gz")
    assert bench.failed == 0, bench.problems
    assert info["missing_patches"] == [] and info["counter_errors"] == {}
    names = [m["name"] for m in SPEC["per_layer"]]
    assert set(names) <= set(values)
    layers = sum(values[f"{layer}.self_s"] for layer in tracer.LAYERS)
    assert layers + values["trace.unattributed_s"] == pytest.approx(values["trace.wall_s"])
    assert values["trace.unattributed_s"] >= 0
    # Nothing stays patched after the traced pass.
    assert not hasattr(pkg.cli.main, "__wrapped__")


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(SPEC["command"] + ["--workload", "bulk-500kw", "--seed", "1",
                                             "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
