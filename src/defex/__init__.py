"""defex: definition-matched event mention extraction.

A dual-encoder toolkit: contrastive training aligns contextualized mention
vectors with definition-sentence vectors in one space; arbitrary
definition-specified event types are then extracted by thresholded cosine
similarity against a precomputed definition index.
"""

__version__ = "0.1.0"
