import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entropy_classifier import calibration, experiments, logreg
from entropy_classifier.background import train
from entropy_classifier.calibration import calibrate_fpr, measure_fpr
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
from entropy_classifier.logreg import calibrate_lr_threshold, lr_measure_fpr, train_lr
from entropy_classifier.synthetic import SuiteParams, build_suite
from entropy_classifier.text import corpus_from_texts

from conftest import count_match_calls, loads_or_refuses, mutations, write_lines_file


def tiny_config(n_categories=2, seed=5):
    return build_suite(SuiteParams(
        seed=seed, n_categories=n_categories, n_background=60, n_negatives=50,
        n_positives=12, filler_vocab=80, target_fpr=0.05, k=50,
    ))


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

    def test_fpr_is_the_calibrated_fpr(self):
        cfg = tiny_config()
        report = run_experiment2(cfg)
        for spec in cfg.categories:
            kb = train(spec.glossary, cfg.background, cfg.k)
            kb, _ = calibrate_fpr(kb, spec.glossary, cfg.negatives, cfg.target_fpr)
            assert (report.per_category[f"{spec.name}/kb"].fpr_a
                    == measure_fpr(kb, spec.glossary, cfg.negatives))
            lr = train_lr(split_alternating(spec.positives)[0], cfg.background, cfg.lr)
            lr, _ = calibrate_lr_threshold(lr, cfg.negatives, cfg.target_fpr)
            assert report.per_category[f"{spec.name}/lr"].fpr_a == lr_measure_fpr(lr, cfg.negatives)

    def test_measures_no_fpr_after_calibration(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("exp2 re-measured an FPR that calibration counted")
        for name in ("measure_fpr", "lr_measure_fpr"):
            monkeypatch.setattr(experiments, name, refuse)
        monkeypatch.setattr(calibration, "measure_fpr", refuse)
        monkeypatch.setattr(logreg, "lr_measure_fpr", refuse)
        run_experiment2(tiny_config())

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

    def test_unknown_expect_key_fails_not_errors(self, tmp_path):
        p = write_lines_file(tmp_path / "t.txt", [
            "format_version 1",
            "kind recall_pair",
            "row a 0.2 0.4",
            "expect bogus_key 0.5 abs 0.1",
        ])
        report = verify_table(p)
        assert not report.all_passed

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
    ])
    def test_malformed_tables_rejected(self, tmp_path, lines, message):
        p = write_lines_file(tmp_path / "t.txt", lines)
        with pytest.raises(ValidationError, match=message):
            verify_table(p)

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
