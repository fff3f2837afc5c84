import hashlib

from entropy_classifier.synthetic import SuiteParams, build_suite

# sha256 of each corpus's texts joined by "\n", for SuiteParams(seed=1): the
# suite that acceptance criterion 09, the experiments workload and
# scripts/run_synthetic_suites.py --seeds 1 run.
SEED_1_DIGESTS = {
    "background": "fc03530a6bdd2c0c2ed0404a03bf235c391700bd3b054234ff2b0e75c7be1efd",
    "negatives": "1b74035c3f8bb58cdeef21157e6d44bf9a325aedde0e8bd6ec6047b85c569c3c",
    "synth0/A": "2b2554c675b2cbb4c18b74f78b80a403a6788a8127ab530b5d44f62f2153b740",
    "synth0/B": "378fcb89d6769fa56f7264f8f5a8ae5c16d103ce31ed29dbeea0f11cfac0b0e4",
    "synth1/A": "0f076674e581470615ce6d20d0d7f892d22ada7820bc912dac81c7b22d1edc14",
    "synth1/B": "e39976c38b5457cc42fb900099b8ff5a789af322dcf38c0a3500063a5dc961d6",
    "synth2/A": "e41ec809c72c4b0416100132049c4f216dfeb5abe56dbfa4868e5f3534884c58",
    "synth2/B": "83676e86d475e7882647fc8e99a086f2ab45e99bb2d013111c9f46f3f26b489f",
}


def test_seed_1_suite_texts_are_pinned():
    def digest(corpus):
        return hashlib.sha256("\n".join(d.raw_text for d in corpus).encode()).hexdigest()

    cfg = build_suite(SuiteParams(seed=1))
    got = {"background": digest(cfg.background), "negatives": digest(cfg.negatives)}
    for spec in cfg.categories:
        got[f"{spec.name}/A"], got[f"{spec.name}/B"] = map(digest, (spec.positives,
                                                                    spec.positives_b))
    assert got == SEED_1_DIGESTS
    assert (cfg.k, cfg.target_fpr) == (100, 0.02)


def test_same_seed_reproduces_suite():
    a = build_suite(SuiteParams(seed=42, n_categories=2, n_background=30,
                                n_negatives=20, n_positives=6))
    b = build_suite(SuiteParams(seed=42, n_categories=2, n_background=30,
                                n_negatives=20, n_positives=6))
    assert [d.raw_text for d in a.background] == [d.raw_text for d in b.background]
    assert [d.raw_text for d in a.negatives] == [d.raw_text for d in b.negatives]
    for sa, sb in zip(a.categories, b.categories):
        assert sa.glossary.digest() == sb.glossary.digest()
        assert [d.raw_text for d in sa.positives] == [d.raw_text for d in sb.positives]


def test_different_seeds_differ():
    a = build_suite(SuiteParams(seed=1, n_categories=1, n_background=30,
                                n_negatives=20, n_positives=6))
    b = build_suite(SuiteParams(seed=2, n_categories=1, n_background=30,
                                n_negatives=20, n_positives=6))
    assert [d.raw_text for d in a.background] != [d.raw_text for d in b.background]


def test_suite_shape():
    p = SuiteParams(seed=9, n_categories=3, n_background=40, n_negatives=25,
                    n_positives=7)
    cfg = build_suite(p)
    assert len(cfg.categories) == 3
    assert len(cfg.background) == 40
    assert len(cfg.negatives) == 25
    names = [s.name for s in cfg.categories]
    assert len(set(names)) == 3
    for spec in cfg.categories:
        assert len(spec.positives) == 7
        assert len(spec.positives_b) == 7
        # bigram phrases stay intact inside generated documents
        assert any(len(ph) == 2 for ph in spec.glossary.phrases)


def test_spam_negatives_have_single_species():
    from entropy_classifier.glossary import match

    cfg = build_suite(SuiteParams(seed=3, n_categories=1, n_background=40,
                                  n_negatives=60, n_positives=6))
    glossary = cfg.categories[0].glossary
    heavy = 0
    for doc in cfg.negatives:
        profile = match(glossary, doc.tokens)
        if profile.total_matches >= 12:
            heavy += 1
            assert len(profile.tf) == 1
    assert heavy == 11
