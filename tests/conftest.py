import numpy as np
import pytest

from defex.corpus import SyntheticSpec, generate_synthetic_corpus
from defex.encoder import DualEncoderModel, EncoderConfig


@pytest.fixture(scope="session")
def tiny_world():
    """A small synthetic quadruple shared by unit tests (not the acceptance
    fixtures)."""
    spec = SyntheticSpec(
        n_types=4,
        mentions_per_type=6,
        instances_per_definition=8,
        n_distractor_definitions=3,
        neighbors_per_type=1,
    )
    return generate_synthetic_corpus(spec, seed=11)


@pytest.fixture(scope="session")
def tiny_model(tiny_world):
    corpus, _, _, _ = tiny_world
    config = EncoderConfig(vocab_size=512, embedding_dim=32, n_layers=2, n_heads=4,
                           max_sequence_length=64)
    return DualEncoderModel.initialize(config, corpus, seed=3)


@pytest.fixture(scope="session")
def rewrite_archive():
    """``rewrite(path, change, target=None)``: apply ``change`` to the dict
    of an .npz archive's arrays and write the result to ``target`` (default
    ``path``)."""

    def rewrite(path, change, target=None):
        with np.load(path, allow_pickle=False) as archive:
            data = {name: archive[name] for name in archive.files}
        change(data)
        np.savez(path if target is None else target, **data)

    return rewrite
