"""Knowledge-based document classification by keyword abundance and diversity.

A classifier for one category is a keyword glossary plus a background model
fitted on an unlabeled corpus. Documents are scored by how much glossary
vocabulary they contain (length-normalized tf-idf mass) weighted by how
diverse the matched vocabulary is (Shannon entropy of the match distribution),
then standardized against the background corpus and squashed through a
sigmoid with a calibratable bias.
"""

__version__ = "0.1.0"
