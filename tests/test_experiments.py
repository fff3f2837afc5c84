import sys
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entropy_classifier import background, calibration, experiments, logreg, scoring
from entropy_classifier.background import train
from entropy_classifier.calibration import calibrate_fpr, measure_fpr, threshold_for_scores
from entropy_classifier.errors import ValidationError
from entropy_classifier.experiments import (
    CategorySpec,
    ExperimentConfig,
    bundled_golden_paths,
    render_records,
    render_table,
    render_table_report,
    run_experiment1,
    run_experiment2,
    split_alternating,
    verify_table,
)
from entropy_classifier.glossary import make_glossary
from entropy_classifier.logreg import LrParams, calibrate_lr_threshold, lr_measure_fpr, train_lr
from entropy_classifier.stats import recall
from entropy_classifier.synthetic import SuiteParams, build_suite
from entropy_classifier.text import Corpus, Document, corpus_from_texts

from conftest import count_match_calls, loads_or_refuses, mutations, write_lines_file
from oracles import naive_abundance, naive_idf, naive_match, naive_mean_std


def tiny_config(n_categories=2, seed=5):
    return replace(build_suite(SuiteParams(
        seed=seed, n_categories=n_categories, n_background=60, n_negatives=50,
        n_positives=12, target_fpr=0.05,
    )), k=50)


def count_calls(monkeypatch, fn) -> list[int]:
    """Count calls of fn through every package module that binds it; the
    count is the list's item."""
    calls = [0]

    def counting(*args):
        calls[0] += 1
        return fn(*args)

    for name, module in list(sys.modules.items()):
        if name.startswith("entropy_classifier") and vars(module).get(fn.__name__) is fn:
            monkeypatch.setattr(module, fn.__name__, counting)
    return calls


class TestSplitAlternating:
    def test_even_odd_positions(self):
        corpus = corpus_from_texts(["a", "b", "c", "d", "e"])
        train_half, eval_half = split_alternating(corpus)
        assert [d.raw_text for d in train_half] == ["a", "c", "e"]
        assert [d.raw_text for d in eval_half] == ["b", "d"]

    def test_disjoint_and_exhaustive(self):
        corpus = corpus_from_texts([f"doc {i}" for i in range(9)])
        a, b = split_alternating(corpus)
        ids_a = {d.id for d in a}
        ids_b = {d.id for d in b}
        assert ids_a.isdisjoint(ids_b)
        assert ids_a | ids_b == {d.id for d in corpus}

    def test_too_small_rejected(self):
        with pytest.raises(ValidationError, match="fewer than 2"):
            split_alternating(corpus_from_texts(["only"]))


class TestValidation:
    def test_empty_categories(self):
        cfg = tiny_config()
        bad = ExperimentConfig(categories=(), background=cfg.background,
                               negatives=cfg.negatives)
        with pytest.raises(ValidationError, match="at least one category"):
            run_experiment1(bad)

    def test_whitespace_name(self):
        cfg = tiny_config()
        spec = cfg.categories[0]
        bad_spec = CategorySpec(name="has space", glossary=spec.glossary,
                                positives=spec.positives)
        bad = ExperimentConfig(categories=(bad_spec,), background=cfg.background,
                               negatives=cfg.negatives)
        with pytest.raises(ValidationError, match="without whitespace"):
            run_experiment1(bad)

    def test_duplicate_names(self):
        cfg = tiny_config()
        bad = ExperimentConfig(categories=(cfg.categories[0], cfg.categories[0]),
                               background=cfg.background, negatives=cfg.negatives)
        with pytest.raises(ValidationError, match="duplicate category name"):
            run_experiment1(bad)

    def test_exp2_requires_b_corpus(self):
        cfg = tiny_config()
        spec = cfg.categories[0]
        no_b = CategorySpec(name=spec.name, glossary=spec.glossary,
                            positives=spec.positives)
        bad = ExperimentConfig(categories=(no_b,), background=cfg.background,
                               negatives=cfg.negatives)
        with pytest.raises(ValidationError, match="needs a B corpus"):
            run_experiment2(bad)


class TestExperiment1:
    def test_report_shape_and_fpr_bound(self):
        cfg = tiny_config()
        report = run_experiment1(cfg)
        assert report.experiment == "exp1"
        assert set(report.per_category) == {s.name for s in cfg.categories}
        for row in report.per_category.values():
            assert row.fpr_a <= cfg.target_fpr
            assert row.fpr_b <= cfg.target_fpr
            assert 0.0 <= row.recall_a <= 1.0
            assert 0.0 <= row.recall_b <= 1.0
        n = len(cfg.categories)
        mean_a = sum(r.recall_a for r in report.per_category.values()) / n
        mean_b = sum(r.recall_b for r in report.per_category.values()) / n
        assert report.aggregate["mean_recall_a"] == pytest.approx(mean_a, rel=1e-14)
        assert report.aggregate["mean_recall_b"] == pytest.approx(mean_b, rel=1e-14)
        assert report.anova is not None

    def test_matches_each_document_once_per_category(self, monkeypatch):
        cfg = tiny_config()
        calls = count_match_calls(monkeypatch)
        run_experiment1(cfg)
        assert calls == [sum(len(cfg.background) + len(cfg.negatives) + len(s.positives)
                             for s in cfg.categories)]

    def test_runs_df_once_per_category_and_the_kernel_once_per_document(self, monkeypatch):
        # One kernel pass feeds both the ablation and the entropy model.
        cfg = tiny_config()
        df_calls = count_calls(monkeypatch, background.compute_df)
        kernel_calls = count_calls(monkeypatch, scoring._score_profile)
        run_experiment1(cfg)
        assert df_calls == [len(cfg.categories)]
        assert kernel_calls == [sum(len(cfg.background) + len(cfg.negatives) + len(s.positives)
                                    for s in cfg.categories)]

    def test_ablation_equals_the_naive_oracle(self):
        # recall_a and fpr_a: the abundance alone, standardized over the
        # background, thresholded on the negatives, counted on A.
        cfg = tiny_config()
        report = run_experiment1(cfg)
        for spec in cfg.categories:
            phrases = spec.glossary.phrases
            df = Counter(kid for doc in cfg.background for kid in naive_match(phrases, doc.tokens))
            idf = {kid: naive_idf(df[kid], len(cfg.background)) for kid in range(len(phrases))}

            def abundance(corpus):
                return [naive_abundance(naive_match(phrases, doc.tokens), idf, len(doc.tokens),
                                        cfg.k) for doc in corpus]

            mu, sigma = naive_mean_std(abundance(cfg.background))
            bias, fpr = threshold_for_scores([(s - mu) / sigma for s in abundance(cfg.negatives)],
                                             cfg.target_fpr)
            row = report.per_category[spec.name]
            assert row.fpr_a == fpr
            assert row.recall_a == recall([(s - mu) / sigma for s in abundance(spec.positives)],
                                          bias)

    def test_entropy_column_equals_the_model_path(self):
        # recall_b and fpr_b: what train, calibrate_fpr and measure_fpr give.
        cfg = tiny_config()
        report = run_experiment1(cfg)
        for spec in cfg.categories:
            model, fpr = calibrate_fpr(train(spec.glossary, cfg.background, cfg.k),
                                       spec.glossary, cfg.negatives, cfg.target_fpr)
            row = report.per_category[spec.name]
            assert (row.fpr_b, row.recall_b) == (
                fpr, measure_fpr(model, spec.glossary, spec.positives))

    def test_single_category_omits_anova(self):
        report = run_experiment1(tiny_config(n_categories=1))
        assert report.anova is None
        assert any("ANOVA omitted" in w for w in report.warnings)


class TestExperiment2:
    def test_report_shape(self):
        cfg = tiny_config()
        report = run_experiment2(cfg)
        expected_rows = set()
        for spec in cfg.categories:
            expected_rows.add(f"{spec.name}/lr")
            expected_rows.add(f"{spec.name}/kb")
        assert set(report.per_category) == expected_rows
        for name, row in report.per_category.items():
            assert row.n_pos_a == len(cfg.categories[0].positives) // 2
            assert row.fpr_a <= cfg.target_fpr
            if row.fractional_change is None:
                assert row.recall_a == 0.0
                short = name
                assert any(short in w for w in report.warnings)

    def test_matches_each_document_once_per_category(self, monkeypatch):
        # The knowledge-based model matches the shared corpora, A's held-out
        # half and B; the LR baseline matches nothing.
        cfg = tiny_config()
        calls = count_match_calls(monkeypatch)
        run_experiment2(cfg)
        assert calls == [sum(len(cfg.background) + len(cfg.negatives) + len(s.positives) // 2
                             + len(s.positives_b) for s in cfg.categories)]

    def test_fpr_is_the_calibrated_fpr(self):
        cfg = tiny_config()
        report = run_experiment2(cfg)
        for spec in cfg.categories:
            kb = train(spec.glossary, cfg.background, cfg.k)
            kb, _ = calibrate_fpr(kb, spec.glossary, cfg.negatives, cfg.target_fpr)
            assert (report.per_category[f"{spec.name}/kb"].fpr_a
                    == measure_fpr(kb, spec.glossary, cfg.negatives))
            lr = train_lr(split_alternating(spec.positives)[0], cfg.background, LrParams())
            lr, _ = calibrate_lr_threshold(lr, cfg.negatives, cfg.target_fpr)
            assert report.per_category[f"{spec.name}/lr"].fpr_a == lr_measure_fpr(lr, cfg.negatives)

    def test_lr_on_the_shared_encodings_equals_the_public_path(self, monkeypatch):
        # exp2 encodes the background and the negatives once for all
        # categories; each category's LR must come out as train_lr and
        # calibrate_lr_threshold give it on the plain corpora.
        def prepend(corpus, texts):
            docs = tuple(Document.from_text(f"x{i}", t) for i, t in enumerate(texts))
            return Corpus(documents=docs + corpus.documents, source=corpus.source)

        cfg = tiny_config()
        # zzbridge: one background and one training document, so it reaches
        # MIN_DF only counted together; zzposonly: two training documents and
        # no background one; zzonce: one background document; and a document
        # with no tokens in every corpus. A's even positions train.
        positives_head = ["zzposonly zzbridge", "held", "zzposonly", "held", "!!!", "held"]
        cfg = replace(
            cfg,
            background=prepend(cfg.background, ["zzbridge zzonce", "!!!"]),
            negatives=prepend(cfg.negatives, ["", "zzposonly zzbridge zzonce"]),
            categories=tuple(replace(spec, positives=prepend(spec.positives, positives_head))
                             for spec in cfg.categories),
        )
        calibrated, shared = [], []

        def record(model, negatives, target_fpr):
            shared.append(negatives)
            calibrated.append(calibrate_lr_threshold(model, negatives, target_fpr))
            return calibrated[-1]

        monkeypatch.setattr(experiments, "calibrate_lr_threshold", record)
        report = run_experiment2(cfg)
        assert len(calibrated) == len(cfg.categories)
        # One encoding of the negatives, handed to every category.
        assert shared[0] is not cfg.negatives and all(n is shared[0] for n in shared)
        for spec, (got, got_fpr) in zip(cfg.categories, calibrated):
            a_train = split_alternating(spec.positives)[0]
            want, want_fpr = calibrate_lr_threshold(train_lr(a_train, cfg.background, LrParams()),
                                                    cfg.negatives, cfg.target_fpr)
            assert got.vocabulary == want.vocabulary
            assert np.array_equal(got.weights, want.weights)
            assert (got.threshold_bias, got_fpr) == (want.threshold_bias, want_fpr)
            assert report.per_category[f"{spec.name}/lr"].fpr_a == want_fpr
            df = Counter(tok for doc in (*a_train, *cfg.background) for tok in set(doc.tokens))
            kept = sorted(tok for tok, n in df.items() if n >= logreg.MIN_DF)
            assert want.vocabulary == {tok: i for i, tok in enumerate(kept)}
            assert {"zzbridge", "zzposonly"} <= set(kept) and "zzonce" not in kept

    def test_measures_no_fpr_after_calibration(self, monkeypatch):
        # Each classifier scores the negatives once per category, to calibrate:
        # a row's FPR is the one calibration counted, never a second pass.
        cfg = tiny_config()
        n_neg = len(cfg.negatives)
        # The spies tell the negatives apart by size: no held-out half or B matches.
        assert all(n_neg not in (len(s.positives) // 2, len(s.positives_b))
                   for s in cfg.categories)
        scored = Counter()

        def spy(module, name, classifier, corpus_arg):
            real = getattr(module, name)

            def counting(*args):
                if len(args[corpus_arg]) == n_neg:
                    scored[classifier] += 1
                return real(*args)
            monkeypatch.setattr(module, name, counting)

        spy(calibration, "standardized_scores", "kb", 0)
        spy(logreg, "lr_logit", "lr", 1)
        run_experiment2(cfg)
        assert scored == {"kb": len(cfg.categories), "lr": len(cfg.categories)}

    def test_kb_rows_use_full_a_corpus_heldout_half(self):
        cfg = tiny_config()
        report = run_experiment2(cfg)
        spec = cfg.categories[0]
        row = report.per_category[f"{spec.name}/kb"]
        assert row.n_pos_b == len(spec.positives_b)


class TestRendering:
    def test_records_roundtrip_structure(self):
        report = run_experiment1(tiny_config())
        text = render_records(report)
        lines = text.strip().split("\n")
        assert lines[0] == "report exp1"
        assert lines[1] == "k 50"
        categories = [ln for ln in lines if ln.startswith("category ")]
        assert len(categories) == 2
        for ln in categories:
            parts = ln.split()
            assert parts[2] == "recall_a"
            float(parts[3])  # parses
        assert any(ln.startswith("aggregate mean_recall_a ") for ln in lines)
        assert text.endswith("\n")

    def test_table_contains_rows_and_aggregates(self):
        report = run_experiment1(tiny_config())
        table = render_table(report)
        for name in report.per_category:
            assert name in table
        assert "mean_recall_a" in table
        assert "category" in table.split("\n")[1]


class TestVerifyTable:
    def test_bundled_tables_pass(self):
        paths = bundled_golden_paths()
        assert len(paths) == 2
        for p in paths:
            assert p.exists()
            report = verify_table(p)
            assert report.all_passed, render_table_report(report)

    def test_single_row_table_averages_equal_row(self, tmp_path):
        p = write_lines_file(tmp_path / "t.txt", [
            "format_version 1",
            "kind recall_pair",
            "row only 0.25 0.75",
            "expect mean_a 0.25 abs 1e-9",
            "expect mean_b 0.75 abs 1e-9",
        ])
        report = verify_table(p)
        assert report.all_passed
        assert report.computed["mean_a"] == 0.25
        # one row cannot feed an ANOVA
        assert "anova_p" not in report.computed
        assert any("ANOVA omitted" in w for w in report.warnings)

    def test_failing_expectation_flags(self, tmp_path):
        p = write_lines_file(tmp_path / "t.txt", [
            "format_version 1",
            "kind recall_pair",
            "row a 0.2 0.4",
            "row b 0.4 0.6",
            "expect mean_a 0.9 abs 0.001",
        ])
        report = verify_table(p)
        assert not report.all_passed
        rendered = render_table_report(report)
        assert "FAIL" in rendered

    def test_unknown_expect_key_is_refused(self, tmp_path):
        # A key the table never computes can never pass: it is a malformed
        # line, not a failed check.
        p = write_lines_file(tmp_path / "t.txt", [
            "format_version 1",
            "kind recall_pair",
            "row a 0.2 0.4",
            "expect bogus_key 0.5 abs 0.1",
        ])
        with pytest.raises(ValidationError, match="unknown expect key 'bogus_key' on line 4"):
            verify_table(p)

    def test_omitted_anova_check_fails_with_warning(self, tmp_path):
        p = write_lines_file(tmp_path / "t.txt", [
            "format_version 1",
            "kind recall_shift",
            "row a 0.2 0.4 0.3 0.3",
            "expect anova_p 0.5 abs 1",
            "expect mean_change_a 1 abs 1e-9",
        ])
        report = verify_table(p)
        assert [(c.key, c.passed) for c in report.checks] == [("anova_p", False),
                                                              ("mean_change_a", True)]
        assert "fewer than 2 values per group: ANOVA omitted" in report.warnings

    def test_recall_shift_fc_and_zero_baseline_warning(self, tmp_path):
        p = write_lines_file(tmp_path / "t.txt", [
            "format_version 1",
            "kind recall_shift",
            "labels lr kb",
            "row one 0.5 0.25 0.4 0.5",
            "row two 0.0 0.3 0.2 0.3",
            "expect mean_change_lr -0.5 abs 1e-9",
        ])
        report = verify_table(p)
        # lr fc: only row one contributes (-0.5); row two has zero baseline
        assert report.computed["mean_change_lr"] == pytest.approx(-0.5, rel=1e-12)
        assert report.computed["mean_change_kb"] == pytest.approx((0.25 + 0.5) / 2, rel=1e-12)
        assert any("zero" in w for w in report.warnings)
        assert report.all_passed

    @pytest.mark.parametrize("lines,message", [
        (["kind recall_pair", "row a 0.1 0.2"], "expected 'format_version' record, found 'kind'"),
        (["format_version 1", "row a 0.1 0.2"], "expected 'kind' record, found 'row'"),
        (["format_version 1", "kind bogus"], "unknown kind"),
        (["format_version 1", "kind recall_pair"], "no data rows"),
        (["format_version 1", "kind recall_pair", "row a 0.1"], "row needs 3 fields"),
        (["format_version 1", "kind recall_pair", "row a 1.5 0.2"], "outside"),
        (["format_version 1", "kind recall_pair", "row a 0.1 0.2", "shrug x"], "unknown record"),
        (["format_version 1", "kind recall_pair", "row a 0.1 0.2",
          "expect mean_a 0.1 nearly 0.1"], "malformed expect"),
        (["format_version 1", "kind recall_pair", "  row a 0.1 0.2"], "unknown record ''"),
        (["format_version 1", "kind recall_pair", "row a 0.1 0.2",
          "kind recall_shift", "row b 0.1 0.2 0.3 0.4"], "unknown record 'kind' on line 4"),
        (["format_version 1", "kind recall_shift", "labels lr lr",
          "row a 0.1 0.2 0.3 0.4", "row b 0.2 0.3 0.4 0.5"], "two distinct names"),
        (["format_version 1", "kind recall_shift", "labels lr kb", "row a 0.1 0.2 0.3 0.4",
          "labels x y"], "unknown record 'labels' on line 5"),
        (["kind recall_pair", "format_version 1", "row a 0.1 0.2"],
         "expected 'format_version' record, found 'kind'"),
        (["format_version 1", "kind recall_shift", "row a 0.1 0.2 0.3 0.4", "labels lr kb",
          "row b 0.2 0.3 0.4 0.5"], "unknown record 'labels' on line 4"),
        (["format_version 2", "kind recall_pair", "row a 0.1 0.2"],
         "unsupported format_version '2'"),
        (["format_version 1", "kind recall_pair", "row a 0.45 0.2",
          "expect mean_a 0.45 abs -0.1"], "negative tolerance on line 4: 'mean_a 0.45 abs -0.1'"),
        (["format_version 1", "kind recall_pair", "row a 0.45 0.2",
          "expect mean_a 0.45 rel inf"], "expect on line 4 must be finite"),
        # The kind and the labels declare every key a table computes.
        (["format_version 1", "kind recall_pair", "row a 0.45 0.2",
          "expect mean_x 0.45 abs 0.1"], "unknown expect key 'mean_x' on line 4"),
        (["format_version 1", "kind recall_shift", "row a 0.1 0.2 0.3 0.4",
          "expect mean_a 0.1 abs 0.1"], "unknown expect key 'mean_a' on line 4"),
        (["format_version 1", "kind recall_shift", "labels lr kb", "row a 0.1 0.2 0.3 0.4",
          "expect mean_change_svm 0.1 abs 0.1"], "unknown expect key 'mean_change_svm' on line 5"),
        (["format_version 1", "kind recall_pair", "labels lr kb", "row a 0.1 0.2"],
         "unknown record 'labels' on line 3"),
        # A baseline recall near 0 makes a fractional change near 1 / baseline:
        # infinite, a mean that overflows, and an ANOVA whose squares overflow.
        (["format_version 1", "kind recall_shift", "row a 5e-324 1 0.5 0.5",
          "row b 0.5 0.5 0.5 0.6"], "aggregates out of floating-point range"),
        (["format_version 1", "kind recall_shift", "row a 1e-308 1 0.5 0.5",
          "row b 1e-308 1 0.5 0.6"], "aggregates out of floating-point range"),
        (["format_version 1", "kind recall_shift", "row a 1e-200 1 0.5 0.5",
          "row b 0.5 0.5 0.5 0.6"], "aggregates out of floating-point range"),
    ])
    def test_malformed_tables_rejected(self, tmp_path, lines, message):
        p = write_lines_file(tmp_path / "t.txt", lines)
        with pytest.raises(ValidationError, match=message):
            verify_table(p)

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_expect_may_name_only_what_the_table_computes(self, fuzz_file, data):
        shift = data.draw(st.booleans())
        header = ["format_version 1", f"kind {'recall_shift' if shift else 'recall_pair'}"]
        labels = ["a", "b"]
        if shift and data.draw(st.booleans()):
            labels = data.draw(st.lists(st.sampled_from(["a", "b", "lr", "kb", "svm"]),
                                        min_size=2, max_size=2, unique=True))
            header.append("labels " + " ".join(labels))
        groups = [f"mean_change_{name}" if shift else f"mean_{name}" for name in labels]
        declared = groups + ["anova_f", "anova_p"]
        foreign = data.draw(st.sampled_from([
            key for key in ("mean_a", "mean_b", "mean_change_a", "mean_change_lr",
                            "mean_change_kb", "mean_x", "anova") if key not in declared]))
        recall = st.floats(0.0, 1.0).map(repr)
        rows = [" ".join(["row", f"r{i}", *data.draw(st.lists(
                    recall, min_size=4 if shift else 2, max_size=4 if shift else 2))])
                for i in range(data.draw(st.integers(1, 4)))]
        expect = st.tuples(st.sampled_from(declared + [foreign]), st.floats(-2.0, 2.0),
                           st.sampled_from(["abs", "rel"]), st.floats(0.0, 1.0))
        expects = [f"expect {key} {expected!r} {kind} {tol!r}"
                   for key, expected, kind, tol in data.draw(st.lists(expect, max_size=4))]
        lines = header + data.draw(st.permutations(rows + expects))
        write_lines_file(fuzz_file, lines)
        bad = [n for n, line in enumerate(lines, start=1)
               if line.startswith(f"expect {foreign} ")]
        if bad:
            with pytest.raises(ValidationError,
                               match=f"unknown expect key '{foreign}' on line {bad[0]}$"):
                verify_table(fuzz_file)
        else:
            try:
                report = verify_table(fuzz_file)
            except ValidationError as exc:  # the rows' refusal, never an expect's
                assert str(exc).endswith(": aggregates out of floating-point range")
            else:
                assert [c.key for c in report.checks] == [line.split()[1] for line in lines
                                                          if line.startswith("expect ")]

    @given(st.binary(max_size=300))
    @settings(max_examples=150, deadline=None)
    def test_arbitrary_bytes_load_or_refuse(self, fuzz_file, data):
        fuzz_file.write_bytes(data)
        loads_or_refuses(verify_table, fuzz_file)

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_mutated_tables_load_or_refuse(self, fuzz_file, data):
        original = data.draw(st.sampled_from(bundled_golden_paths())).read_bytes()
        fuzz_file.write_bytes(data.draw(mutations(original)))
        loads_or_refuses(verify_table, fuzz_file)
