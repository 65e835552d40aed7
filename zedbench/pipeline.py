"""One pass of the paper's pipeline over a workload's JSONL inputs, timed
phase by phase from outside the package, with its correctness checks.

Phases: set-up (load + tokenizer fit + model init, repeated), pretrain,
warming, extraction passes (index build + extract, repeated), a closed
loop of ``score_mention`` calls with one caller, and micro P/R/F1.  The
checks run untimed and untraced; none compares against stored output.
"""

from __future__ import annotations

import gc
import hashlib
import json
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np
from scipy.special import erf

from defex import corpus as dcorpus
from defex import encoder, evaluation, inference, training, warming
from defex.errors import DefexError

from workloads import GOLD, Workload

# Timings are the process's CPU time.  BLAS runs on one thread and nothing
# waits on I/O, so this is the wall time the calls take on a core of their
# own; unlike wall time it leaves out the time a shared host steals from
# the virtual CPU, which arrives in bursts that swamp a 99th percentile.
clock = time.process_time

# every pass runs at least MIN_ROUNDS rounds of one set-up, one extraction
# pass and SCORE_CHUNK score_mention calls
MIN_ROUNDS = 2
SCORE_CHUNK = 500
# wall seconds kept after the rounds for evaluation and the checks, on top of
# one extraction pass for re-scoring every prediction
CHECK_RESERVE_S = 1.0
SCORE_WARMUP = 20
PAD_CHECK_SEQUENCES = 32
RESCORE_BATCH = 32
TOL = 1e-9


@dataclass
class Inputs:
    corpus: object
    ontology: object
    documents: tuple
    gold: object
    train_documents: tuple | None = None
    train_gold: object | None = None


@dataclass
class PassResult:
    metrics: dict = field(default_factory=dict)
    checks: dict = field(default_factory=dict)
    record: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    rounds: int = 0
    wall_s: float = 0.0
    cpu_s: float = 0.0

    @property
    def correct(self) -> bool:
        return all(ok for ok, _ in self.checks.values())

    def check(self, name: str, ok: bool, detail="") -> None:
        prev_ok, prev_detail = self.checks.get(name, (True, ""))
        self.checks[name] = (prev_ok and bool(ok), detail if not ok else prev_detail)


class _NoTracer:
    enabled = False


@contextmanager
def paused(tracer):
    was = tracer.enabled
    tracer.enabled = False
    try:
        yield
    finally:
        tracer.enabled = was


def reference_loop_s() -> float:
    """A fixed numpy workload, timed between phases to follow the host's
    speed; recorded only, never folded into a metric."""
    rng = np.random.default_rng(0)
    x = rng.normal(size=(16, 24, 64))
    w = rng.normal(size=(64, 128)) * 0.1
    started = clock()
    for _ in range(40):
        h = erf(x @ w)
        x = np.tanh(h @ w.T)
    return clock() - started


def _settle(ref: dict, phase: str) -> None:
    """Before a timed phase: collect garbage left by the previous phase and
    time the reference loop."""
    gc.collect()
    ref[phase] = reference_loop_s()


def load_inputs(paths) -> Inputs:
    inputs = Inputs(
        corpus=dcorpus.load_alignment_corpus(paths["corpus"]),
        ontology=dcorpus.load_ontology(paths["ontology"]),
        documents=dcorpus.load_documents(paths["docs"]),
        gold=dcorpus.load_gold(paths["gold"]),
    )
    if "train_docs" in paths:
        inputs.train_documents = dcorpus.load_documents(paths["train_docs"])
        inputs.train_gold = dcorpus.load_gold(paths["train_gold"])
    return inputs


def predictions_sha256(preds) -> str:
    rows = [[r.doc_id, r.sentence_idx, r.start, r.end, r.type_name, repr(r.score)]
            for r in preds.records]
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


def _percentile(values, q):
    return float(np.percentile(np.asarray(values), q, method="linear"))


def run_pass(workload: Workload, seed: int, paths, deadline: float | None = None,
             tracer=None, rounds: int | None = None) -> PassResult:
    """Run the whole chain once.

    After pretraining and warming, the repeated phases run interleaved in
    rounds (one set-up, one extraction pass, a chunk of ``score_mention``
    calls), so that each of them samples the host over the same stretch of
    time.  With ``rounds`` given, exactly that many rounds run.  Otherwise
    rounds continue past ``MIN_ROUNDS`` while one more round and the checks
    after it still end before ``deadline``, a ``time.perf_counter()`` value.
    """
    tracer = tracer or _NoTracer()
    out = PassResult()
    ref = {}
    started, cpu_started = time.perf_counter(), clock()
    tracer.enabled = True

    # -- set-up: load JSONL, fit the tokenizer, initialize the model ---------
    _settle(ref, "setup")
    setup_times, fingerprints = [], set()

    def setup():
        t0 = clock()
        inputs = load_inputs(paths)
        model = encoder.DualEncoderModel.initialize(encoder.EncoderConfig(), inputs.corpus, seed)
        setup_times.append(clock() - t0)
        out.attempted += 1
        with paused(tracer):
            fingerprints.add(model.fingerprint())
        return inputs, model

    inputs, model = setup()
    corpus, ontology, documents, gold = inputs.corpus, inputs.ontology, inputs.documents, inputs.gold

    # -- pretrain ---------------------------------------------------------------
    _settle(ref, "pretrain")
    t0 = clock()
    model, pre_report = training.pretrain(model, corpus, workload.train_config(seed))
    pretrain_s = clock() - t0
    pretrain_work = len(corpus.instances) * workload.pretrain_epochs
    out.attempted += pretrain_work
    _check_losses(out, "pretrain", pre_report.epoch_losses)

    # -- warming ----------------------------------------------------------------
    _settle(ref, "warm")
    t0 = clock()
    if workload.warm_mode == GOLD:
        model, warm_report = warming.warm_with_gold(
            model, inputs.train_gold, inputs.train_documents, ontology,
            workload.warm_config(seed), corpus.definitions,
        )
        warm_instances = len(inputs.train_gold.records)
        plan = None
    else:
        plan = warming.build_warming_subset(model, ontology, corpus, workload.retrieval_config())
        model, warm_report = warming.warm(
            model, plan.corpus, plan.full_definitions, workload.warm_config(seed)
        )
        warm_instances = len(plan.corpus.instances)
    warm_s = clock() - t0
    warm_work = warm_instances * workload.warm_epochs
    out.attempted += warm_work
    _check_losses(out, "warm", warm_report.epoch_losses)
    if plan is None:  # retrieval for its check only, outside the timed phase
        plan = warming.build_warming_subset(model, ontology, corpus, workload.retrieval_config())
    with paused(tracer):
        _check_retrieval(out, plan, ontology, corpus)

    # -- rounds: set-up samples, extraction passes, score_mention closed loop ---
    _settle(ref, "rounds")
    config = inference.InferenceConfig(threshold=workload.threshold)
    n_candidates = sum(len(d.candidates) for d in documents)
    candidates = [(doc, s, a, b) for doc in documents for s, a, b in doc.candidates]
    order = np.random.default_rng([seed, 0x5C0E]).permutation(len(candidates))
    with paused(tracer):  # warm-up: a few documents, a few calls
        index = inference.build_definition_index(model, ontology)
        inference.extract(model, index, documents[:8], config)
        for i in range(SCORE_WARMUP):
            doc, s, a, b = candidates[order[i % len(order)]]
            inference.score_mention(model, index, doc.sentences[s], (a, b))
    extract_times, extract_walls, pass_preds, latencies, scored = [], [], [], [], {}
    preds = counter = None
    rounds_started = time.perf_counter()
    done = 0
    while True:
        if rounds is not None:
            if done >= rounds:
                break
        elif done >= MIN_ROUNDS:
            now = time.perf_counter()
            reserve = statistics.mean(extract_walls) + CHECK_RESERVE_S
            if deadline is None or now + (now - rounds_started) / done + reserve > deadline:
                break
        setup()
        counter = inference.CallCounter()
        out.attempted += n_candidates
        wall0, t0 = time.perf_counter(), clock()
        try:
            index = inference.build_definition_index(model, ontology, counter=counter)
            preds, counter = inference.extract(model, index, documents, config, counter=counter)
            pass_preds.append(preds.records)
        except DefexError as exc:
            out.failed += n_candidates
            out.check("extract_no_error", False, repr(exc))
        extract_times.append(clock() - t0)
        extract_walls.append(time.perf_counter() - wall0)
        for _ in range(SCORE_CHUNK):
            doc, s, a, b = candidates[order[len(latencies) % len(order)]]
            t0 = clock()
            try:
                result = inference.score_mention(model, index, doc.sentences[s], (a, b))
            except DefexError as exc:
                out.failed += 1
                out.check("score_no_error", False, repr(exc))
                result = None
            latencies.append(clock() - t0)
            if result is not None:
                scored[(doc.doc_id, s, a, b)] = result
        done += 1
    out.rounds = done
    out.attempted += len(latencies)
    if preds is None:
        raise SystemExit("every extraction pass failed")

    # -- evaluation -----------------------------------------------------------------
    report_cls = evaluation.micro_prf(preds, gold, evaluation.CLASSIFICATION, ontology)
    report_id = evaluation.micro_prf(preds, gold, evaluation.IDENTIFICATION, ontology)
    out.attempted += 2
    tracer.enabled = False
    out.wall_s = time.perf_counter() - started
    out.cpu_s = clock() - cpu_started

    out.check("setup_deterministic", len(fingerprints) == 1, f"{len(fingerprints)} fingerprints")
    _check_extraction(out, preds, pass_preds, counter, documents, ontology, workload.threshold)
    _check_sampled_scores(out, scored, preds, workload.threshold)
    _check_prediction_scores(out, model, index, documents, preds)
    _check_f1(out, preds, gold, report_cls, report_id)
    _check_pad_invariance(out, model, documents, seed)

    out.metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "pretrain_instances_per_s": (pretrain_work / pretrain_s, "1/s"),
        "warm_instances_per_s": (warm_work / warm_s, "1/s"),
        "extract_candidates_per_s": (n_candidates * len(extract_times) / sum(extract_times), "1/s"),
        "score_p50_ms": (_percentile(latencies, 50) * 1e3, "ms"),
        "score_p99_ms": (_percentile(latencies, 99) * 1e3, "ms"),
        "f1_classification": (report_cls.f1, "fraction"),
        "f1_identification": (report_id.f1, "fraction"),
    }
    out.record = {
        "sizes": {
            "alignment_instances": len(corpus.instances),
            "inventory_definitions": len(corpus.definitions),
            "types": len(ontology),
            "documents": len(documents),
            "candidates": n_candidates,
            "gold_mentions": len(gold.records),
            "warm_instances": warm_instances,
            "predictions": len(preds.records),
        },
        "phase_cpu_seconds": {
            "setup": setup_times,
            "pretrain": pretrain_s,
            "warm": warm_s,
            "extract": extract_times,
            "score_total": float(sum(latencies)),
        },
        "reference_loop_seconds": ref,
        "loss_curves": {
            "pretrain": list(pre_report.epoch_losses),
            "warm": list(warm_report.epoch_losses),
        },
        "predictions_sha256": predictions_sha256(preds),
        "eval": {"classification": report_cls.as_dict(), "identification": report_id.as_dict()},
        "rounds": out.rounds,
        "score_samples": len(latencies),
        "score_latency_ms_quantiles": {
            str(q): _percentile(latencies, q) * 1e3 for q in (5, 25, 50, 75, 90, 95, 99, 99.9, 100)
        },
    }
    return out


# ---------------------------------------------------------------------------
# correctness checks
# ---------------------------------------------------------------------------


def _check_losses(out: PassResult, phase: str, losses) -> None:
    losses = list(losses)
    out.check(f"{phase}_losses_finite", bool(np.all(np.isfinite(losses))), losses)
    out.check(f"{phase}_loss_decreases", len(losses) >= 2 and losses[-1] < losses[0], losses)


def _check_retrieval(out: PassResult, plan, ontology, corpus) -> None:
    """Each target type's definition is in the inventory, so its nearest
    neighbour is that identical text at cosine 1."""
    for name, definition in ontology.types:
        hits = plan.per_type.get(name) or ()
        ok = bool(hits) and corpus.definitions.get(hits[0][0]) == tuple(definition) \
            and abs(hits[0][1] - 1.0) <= TOL
        out.check("retrieval_finds_own_definition", ok, {name: hits[:1]})


def _check_extraction(out, preds, pass_preds, counter, documents, ontology, threshold) -> None:
    candidate_keys = {(d.doc_id, s, a, b) for d in documents for s, a, b in d.candidates}
    sentences = {(d.doc_id, s) for d in documents for s, _, _ in d.candidates}
    names = set(ontology.names)
    for r in preds.records:
        out.check("prediction_is_candidate", r.key in candidate_keys, r.key)
        out.check("prediction_above_threshold", r.score > threshold, (r.key, r.score))
        out.check("prediction_type_known", r.type_name in names, r.type_name)
    out.check("context_calls_equal_sentences", counter.context_encoder_calls == len(sentences),
              (counter.context_encoder_calls, len(sentences)))
    out.check("definition_calls_equal_types", counter.definition_encoder_calls == len(ontology),
              (counter.definition_encoder_calls, len(ontology)))
    out.check("repeated_passes_identical", all(p == pass_preds[0] for p in pass_preds),
              f"{len(pass_preds)} passes")


def _check_sampled_scores(out, scored, preds, threshold) -> None:
    """A candidate scored in the closed loop is emitted iff its best cosine
    exceeds the threshold, and then with the argmax type (first on ties) and
    that score."""
    by_key = {r.key: r for r in preds.records}
    for key, result in scored.items():
        scores = np.array([s for _, s in result])
        best = int(np.argmax(scores))
        pred = by_key.get(key)
        if pred is None:
            out.check("unemitted_at_or_below_threshold", scores[best] <= threshold,
                      (key, float(scores[best])))
        else:
            out.check("sampled_label_is_argmax", result[best][0] == pred.type_name
                      and abs(scores[best] - pred.score) <= TOL, (key, pred.type_name, result[best]))


def _check_prediction_scores(out, model, index, documents, preds) -> None:
    """Every prediction's label is the argmax of its cosine against the
    index's definition vectors, and its score is that cosine.  Each predicted
    sentence is encoded once more, in padded batches rather than one by one
    as ``extract`` does, and the cosine is computed here, not by the
    package."""
    sentences = {(d.doc_id, s): sentence for d in documents for s, sentence in enumerate(d.sentences)}
    by_sentence = {}
    for r in preds.records:
        by_sentence.setdefault((r.doc_id, r.sentence_idx), []).append(r)
    unit_defs = index.vectors / np.linalg.norm(index.vectors, axis=1, keepdims=True)
    names = index.ontology.names
    encoded = {key: model.tokenizer.encode_words(sentences[key]) for key in by_sentence}
    keys = sorted(by_sentence, key=lambda k: len(encoded[k][0]))
    for lo in range(0, len(keys), RESCORE_BATCH):
        batch = keys[lo: lo + RESCORE_BATCH]
        states, _, _ = model.encode_batch(encoder.CONTEXT, [encoded[k][0] for k in batch])
        for i, key in enumerate(batch):
            spans = encoded[key][1]
            for r in by_sentence[key]:
                mention = states[i, spans[r.start][0]: spans[r.end][1] + 1].mean(axis=0)
                sims = unit_defs @ (mention / np.linalg.norm(mention))
                best = int(np.argmax(sims))
                out.check("prediction_label_is_argmax",
                          names[best] == r.type_name and abs(sims[best] - r.score) <= TOL,
                          (r.key, r.type_name, r.score, names[best], float(sims[best])))


def _set_f1(pred_set, gold_set) -> float:
    tp = len(pred_set & gold_set)
    if tp == 0:
        return 0.0
    precision, recall = tp / len(pred_set), tp / len(gold_set)
    return 2 * precision * recall / (precision + recall)


def _check_f1(out, preds, gold, report_cls, report_id) -> None:
    pred_typed = {(r.doc_id, r.sentence_idx, r.start, r.end, r.type_name) for r in preds.records}
    gold_typed = {(r.doc_id, r.sentence_idx, r.start, r.end, r.type_name) for r in gold.records}
    pred_keys = {k[:4] for k in pred_typed}
    gold_keys = {k[:4] for k in gold_typed}
    f1_cls, f1_id = _set_f1(pred_typed, gold_typed), _set_f1(pred_keys, gold_keys)
    out.check("f1_classification_recomputed", abs(f1_cls - report_cls.f1) <= 1e-12,
              (f1_cls, report_cls.f1))
    out.check("f1_identification_recomputed", abs(f1_id - report_id.f1) <= 1e-12,
              (f1_id, report_id.f1))


def _check_pad_invariance(out, model, documents, seed) -> None:
    """A mention pooled from a padded batch equals the one from encoding its
    sentence alone."""
    picks = {}
    for doc in documents:
        for s, a, b in doc.candidates:
            picks.setdefault((doc.doc_id, s), (doc.sentences[s], (a, b)))
    keys = sorted(picks)
    rng = np.random.default_rng([seed, 0xBA7C])
    chosen = [picks[keys[i]] for i in rng.choice(len(keys), size=min(PAD_CHECK_SEQUENCES, len(keys)),
                                                  replace=False)]
    seqs, ranges = [], []
    for sentence, (a, b) in chosen:
        ids, spans = model.tokenizer.encode_words(sentence)
        seqs.append(ids)
        ranges.append((spans[a][0], spans[b][1]))
    states, mask, _ = model.encode_batch(encoder.CONTEXT, seqs)
    worst = 0.0
    for i, (sentence, span) in enumerate(chosen):
        lo, hi = ranges[i]
        batched = states[i, lo: hi + 1].mean(axis=0)
        alone = model.mention_vector(sentence, span).values
        worst = max(worst, float(np.max(np.abs(batched - alone))))
    out.check("pad_invariance", worst <= TOL and np.count_nonzero(mask == 0) > 0, worst)
