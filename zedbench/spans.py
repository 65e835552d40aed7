"""Spans around calls into the public functions of each ``defex`` module.

The wrappers are installed by :meth:`Tracer.install` from this file only,
for the traced run only, and removed by :meth:`Tracer.uninstall`; the
package source is never edited.  A span records its name, start, end and
parent span in memory; :meth:`Tracer.write` stores them when the run ends.
A layer's self time is its span durations minus the time its child spans
cover.  Counts are taken at the same boundaries from the wrapped calls'
arguments and results.
"""

from __future__ import annotations

import functools
import gzip
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

from defex import corpus, encoder, evaluation, inference, nn, tokenizer, training, warming


class Tracer:
    def __init__(self):
        self.enabled = False
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    # -- span recording -------------------------------------------------------

    def wrap(self, name: str, fn, after=None):
        """``fn`` recorded as span ``name``; ``after(counts, args, kwargs,
        result)`` updates counts once the call returns."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            idx = len(tracer.starts)
            tracer.names.append(name)
            tracer.parents.append(tracer._stack[-1] if tracer._stack else -1)
            tracer.ends.append(0.0)
            tracer._stack.append(idx)
            tracer.starts.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.ends[idx] = time.perf_counter()
                tracer._stack.pop()
            tracer.counts[name + ".calls"] += 1
            if after is not None:
                after(tracer.counts, args, kwargs, result)
            return result

        return traced

    def _patch(self, owner, attr: str, replacement):
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        for owner, attr, name, after in _targets():
            original = owner.__dict__.get(attr)
            if original is None:
                self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
                continue
            if isinstance(original, classmethod):
                self._patch(owner, attr, classmethod(self.wrap(name, original.__func__, after)))
            else:
                self._patch(owner, attr, self.wrap(name, original, after))
        for owner, attr, name, after_for in _sampler_factories():
            original = owner.__dict__.get(attr)
            if original is None:
                self.missing.append(f"{owner.__name__}.{attr}")
                continue
            self._patch(owner, attr, self._sampler_factory(original, name, after_for))
        if self.missing:
            print(f"trace: targets not found, their metrics read 0: {self.missing}", file=sys.stderr)

    def _sampler_factory(self, factory, name, after_for):
        tracer = self

        @functools.wraps(factory)
        def make(*args, **kwargs):
            return tracer.wrap(name, factory(*args, **kwargs), after_for(*args, **kwargs))

        return make

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- results --------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        starts = np.asarray(self.starts)
        durations = np.asarray(self.ends) - starts
        parents = np.asarray(self.parents, dtype=np.int64)
        covered = np.zeros_like(durations)
        has_parent = parents >= 0
        np.add.at(covered, parents[has_parent], durations[has_parent])
        own = durations - covered
        totals: dict[str, float] = {}
        for name, value in zip(self.names, own.tolist()):
            totals[name] = totals.get(name, 0.0) + value
        return totals

    def metrics(self, overhead_s: float) -> dict[str, tuple[float, str]]:
        own = self.self_times()
        c = self.counts

        def secs(*names):
            return sum(own.get(n, 0.0) for n in names)

        def share(num, den):
            return c[num] / c[den] if c[den] else 0.0

        return {
            "corpus.load_s": (secs("corpus.load_alignment_corpus", "corpus.load_ontology",
                                   "corpus.load_documents", "corpus.load_gold"), "s"),
            "tokenizer.fit_s": (secs("tokenizer.train"), "s"),
            "tokenizer.encode_words_calls": (c["tokenizer.encode_words.calls"], "count"),
            "tokenizer.encode_words_s": (secs("tokenizer.encode_words"), "s"),
            "nn.block_backward_s": (secs("nn.block_backward"), "s"),
            "nn.attention_backward_s": (secs("nn.attention_backward"), "s"),
            "nn.linear_backward_s": (secs("nn.linear_backward"), "s"),
            "nn.gelu_s": (secs("nn.gelu_forward", "nn.gelu_backward"), "s"),
            "nn.layer_norm_s": (secs("nn.layer_norm_forward", "nn.layer_norm_backward"), "s"),
            "nn.adam_step_s": (secs("nn.adam_step"), "s"),
            "nn.adam_steps": (c["nn.adam_step.calls"], "count"),
            "nn.block_forward_s": (secs("nn.block_forward"), "s"),
            "nn.attention_forward_s": (secs("nn.attention_forward"), "s"),
            "nn.linear_forward_s": (secs("nn.linear_forward"), "s"),
            "nn.pad_batch_calls": (c["nn.pad_batch.calls"], "count"),
            "nn.padded_token_share": (share("pad.padded", "pad.slots"), "fraction"),
            "encoder.forward_s": (secs("encoder.forward"), "s"),
            "encoder.backward_s": (secs("encoder.backward"), "s"),
            "encoder.context_sequences": (c["seq.context"], "count"),
            "encoder.definition_sequences": (c["seq.definition"], "count"),
            "encoder.sequences_per_batch": (share("forward.sequences", "encoder.forward.calls"), "count"),
            "encoder.fingerprint_calls": (c["encoder.fingerprint.calls"], "count"),
            "encoder.fingerprint_s": (secs("encoder.fingerprint"), "s"),
            "inference.score_mention_s": (secs("inference.score_mention"), "s"),
            "training.steps": (c["training.loss_and_gradients.calls"], "count"),
            "training.prepare_batch_s": (secs("training.prepare_batch"), "s"),
            "training.loss_and_gradients_s": (secs("training.loss_and_gradients"), "s"),
            "training.negative_sampling_s": (secs("training.negative_sampling"), "s"),
            "training.unique_definition_share": (share("defs.unique", "defs.total"), "fraction"),
            "training.active_hinge_share": (share("hinge.active", "hinge.total"), "fraction"),
            "warming.retrieval_s": (secs("warming.build_warming_subset"), "s"),
            "warming.static_embeds": (c["warming.static_embed.calls"], "count"),
            "warming.negative_sampling_s": (secs("warming.negative_sampling"), "s"),
            "warming.strong_negative_share": (share("neg.strong", "neg.total"), "fraction"),
            "inference.index_build_s": (secs("inference.build_definition_index"), "s"),
            "inference.extract_s": (secs("inference.extract"), "s"),
            "inference.candidates_per_context_call": (
                share("extract.candidates", "extract.context_calls"), "count"),
            "evaluation.micro_prf_s": (secs("evaluation.micro_prf"), "s"),
            "trace.overhead_s": (overhead_s, "s"),
        }

    def write(self, path: Path) -> None:
        """Spans as gzipped JSON lines: name, start, end (seconds, process
        clock), parent span index (-1 for a root)."""
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            for name, start, end, parent in zip(self.names, self.starts, self.ends, self.parents):
                handle.write(f'["{name}",{start:.9f},{end:.9f},{parent}]\n')


# ---------------------------------------------------------------------------
# count hooks: (counts, args, kwargs, result) -> None
# ---------------------------------------------------------------------------


def _arg(args, kwargs, position, name):
    return args[position] if len(args) > position else kwargs[name]


def _count_pad(counts, args, kwargs, result):
    mask = result[1]
    counts["pad.padded"] += int(mask.size - np.count_nonzero(mask))
    counts["pad.slots"] += int(mask.size)


def _count_forward(counts, args, kwargs, result):
    counts["forward.sequences"] += int(_arg(args, kwargs, 1, "ids").shape[0])


def _count_encode_batch(counts, args, kwargs, result):
    side = _arg(args, kwargs, 1, "side")
    counts[f"seq.{side}"] += len(_arg(args, kwargs, 2, "id_sequences"))


def _count_prepared(counts, args, kwargs, result):
    seqs = getattr(result, "def_seqs", None)
    if seqs:
        counts["defs.total"] += len(seqs)
        counts["defs.unique"] += len({tuple(s) for s in seqs})


def _count_hinge(counts, args, kwargs, result):
    active = np.asarray(result[2]["active"])
    counts["hinge.active"] += int(np.count_nonzero(active))
    counts["hinge.total"] += int(active.size)


def _count_extract(counts, args, kwargs, result):
    documents = _arg(args, kwargs, 2, "documents")
    counts["extract.candidates"] += sum(len(d.candidates) for d in documents)
    counts["extract.context_calls"] += int(getattr(result[1], "context_encoder_calls", 0))


def _uniform_hook(*args, **kwargs):
    return None


def _mixed_hook(full_definitions, strong_ids, *args, **kwargs):
    strong = frozenset(strong_ids)

    def after(counts, a, kw, result):
        counts["neg.total"] += len(result)
        counts["neg.strong"] += sum(1 for did, _ in result if did in strong)

    return after


def _targets():
    """(owner, attribute, span name, count hook) for every wrapped call."""
    t = [
        (corpus, "load_alignment_corpus", "corpus.load_alignment_corpus", None),
        (corpus, "load_ontology", "corpus.load_ontology", None),
        (corpus, "load_documents", "corpus.load_documents", None),
        (corpus, "load_gold", "corpus.load_gold", None),
        (tokenizer.SubwordTokenizer, "train", "tokenizer.train", None),
        (tokenizer.IdentityTokenizer, "train", "tokenizer.train", None),
        (tokenizer.SubwordTokenizer, "encode_words", "tokenizer.encode_words", None),
        (tokenizer.IdentityTokenizer, "encode_words", "tokenizer.encode_words", None),
        (nn, "pad_batch", "nn.pad_batch", _count_pad),
        (nn.Adam, "step", "nn.adam_step", None),
        (encoder.TokenEncoder, "forward", "encoder.forward", _count_forward),
        (encoder.TokenEncoder, "backward", "encoder.backward", None),
        (encoder.DualEncoderModel, "encode_batch", "encoder.encode_batch", _count_encode_batch),
        (encoder.DualEncoderModel, "fingerprint", "encoder.fingerprint", None),
        (training, "prepare_batch", "training.prepare_batch", _count_prepared),
        (training, "loss_and_gradients", "training.loss_and_gradients", _count_hinge),
        (warming, "build_warming_subset", "warming.build_warming_subset", None),
        (warming.StaticEmbedder, "embed", "warming.static_embed", None),
        (inference, "build_definition_index", "inference.build_definition_index", None),
        (inference, "extract", "inference.extract", _count_extract),
        (inference, "score_mention", "inference.score_mention", None),
        (evaluation, "micro_prf", "evaluation.micro_prf", None),
    ]
    for fn in ("block_forward", "block_backward", "attention_forward", "attention_backward",
               "linear_forward", "linear_backward", "gelu_forward", "gelu_backward",
               "layer_norm_forward", "layer_norm_backward"):
        t.append((nn, fn, f"nn.{fn}", None))
    return t


def _sampler_factories():
    """Factories whose returned samplers are wrapped, each with a function
    that makes the count hook from the factory's arguments."""
    return [
        (training, "uniform_negative_sampler", "training.negative_sampling", _uniform_hook),
        (warming, "mixed_negative_sampler", "warming.negative_sampling", _mixed_hook),
    ]
