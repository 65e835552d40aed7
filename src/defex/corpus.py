"""Record formats, corpus I/O, and the synthetic data generator.

All on-disk formats are line-delimited JSON with one record per line:

* ``alignments.jsonl`` -- ``sentence`` (string array), ``start`` (int),
  ``end`` (int, inclusive), ``definition`` (string array),
  ``definition_id`` (string).
* ``ontology.jsonl`` -- ``type_name``, ``definition`` (string array);
  file order defines the type index order.
* ``docs.jsonl`` -- ``doc_id``, ``sentences`` (array of string arrays),
  ``candidates`` (array of ``[sentence_idx, start, end]``).
* ``gold.jsonl`` / ``preds.jsonl`` -- ``doc_id``, ``sentence_idx``,
  ``start``, ``end``, ``type_name``; predictions additionally carry
  ``score``.

Objects are immutable after construction and safe to share between
concurrent readers.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import ArgumentError, InputNotFoundError, ParseError, ValidationError

Tokens = tuple[str, ...]
SpanKey = tuple[str, int, int, int]  # (doc_id, sentence_idx, start, end)


# ---------------------------------------------------------------------------
# record types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AlignmentInstance:
    """One training pair: a mention span in context plus the sense definition
    the span expresses.

    ``start``/``end`` are 0-based inclusive word indices into ``sentence``.
    """

    sentence: Tokens
    start: int
    end: int
    definition: Tokens
    definition_id: str

    def __post_init__(self):
        object.__setattr__(self, "sentence", tuple(self.sentence))
        object.__setattr__(self, "definition", tuple(self.definition))
        if not self.sentence:
            raise ValidationError("alignment instance has an empty sentence")
        if not self.definition:
            raise ValidationError("alignment instance has an empty definition")
        if not self.definition_id:
            raise ValidationError("alignment instance has an empty definition_id")
        if not (0 <= self.start <= self.end < len(self.sentence)):
            raise ValidationError(
                f"span ({self.start}, {self.end}) out of bounds for sentence of "
                f"length {len(self.sentence)}"
            )

    def mention_tokens(self) -> Tokens:
        return self.sentence[self.start : self.end + 1]


@dataclass(frozen=True)
class AlignmentCorpus:
    """An ordered list of alignment instances plus the definition inventory
    negatives are drawn from.

    The inventory may be strictly larger than the set of definitions that
    still have instances (e.g. after subsampling).
    """

    instances: tuple[AlignmentInstance, ...]
    definitions: Mapping[str, Tokens]

    def __post_init__(self):
        object.__setattr__(self, "instances", tuple(self.instances))
        object.__setattr__(
            self, "definitions", {k: tuple(v) for k, v in self.definitions.items()}
        )
        for inst in self.instances:
            if inst.definition_id not in self.definitions:
                raise ValidationError(
                    f"instance references unknown definition_id {inst.definition_id!r}"
                )
            if self.definitions[inst.definition_id] != inst.definition:
                raise ValidationError(
                    f"definition_id {inst.definition_id!r} carries two different "
                    "definition texts"
                )

    def __len__(self) -> int:
        return len(self.instances)

    def all_words(self) -> Iterator[str]:
        """Every word occurrence in the corpus text (for tokenizer fitting).

        Definitions are yielded once per aligned instance, mirroring how
        often they actually occur in training, plus once per inventory entry
        so even instance-less definitions are covered.
        """
        for inst in self.instances:
            yield from inst.sentence
            yield from inst.definition
        for tokens in self.definitions.values():
            yield from tokens


@dataclass(frozen=True)
class EventOntology:
    """The query-time set of target event types, each defined by a natural
    language sentence.  Ordering is stable and meaningful: score lists and
    argmax tie-breaking follow it."""

    types: tuple[tuple[str, Tokens], ...]

    def __post_init__(self):
        norm = tuple((name, tuple(tokens)) for name, tokens in self.types)
        object.__setattr__(self, "types", norm)
        names = [name for name, _ in norm]
        if len(set(names)) != len(names):
            raise ValidationError("ontology contains duplicate type names")
        for name, tokens in norm:
            if not name:
                raise ValidationError("ontology contains an empty type name")
            if not tokens:
                raise ValidationError(f"type {name!r} has an empty definition")
        object.__setattr__(self, "_index", {name: i for i, (name, _) in enumerate(norm)})

    def __len__(self) -> int:
        return len(self.types)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.types)

    def index_of(self, type_name: str) -> int:
        try:
            return self._index[type_name]
        except KeyError:
            raise ValidationError(f"unknown event type {type_name!r}") from None

    def definition_of(self, type_name: str) -> Tokens:
        return self.types[self.index_of(type_name)][1]

    def __contains__(self, type_name: str) -> bool:
        return type_name in self._index


@dataclass(frozen=True)
class Document:
    """A document with pre-identified candidate mention spans."""

    doc_id: str
    sentences: tuple[Tokens, ...]
    candidates: tuple[tuple[int, int, int], ...]  # (sentence_idx, start, end)

    def __post_init__(self):
        object.__setattr__(self, "sentences", tuple(tuple(s) for s in self.sentences))
        object.__setattr__(self, "candidates", tuple(tuple(c) for c in self.candidates))
        if not self.doc_id:
            raise ValidationError("document has an empty doc_id")
        seen = set()
        for cand in self.candidates:
            sent_idx, start, end = cand
            if not (0 <= sent_idx < len(self.sentences)):
                raise ValidationError(
                    f"doc {self.doc_id!r}: candidate sentence index {sent_idx} out of range"
                )
            sent = self.sentences[sent_idx]
            if not (0 <= start <= end < len(sent)):
                raise ValidationError(
                    f"doc {self.doc_id!r}: candidate span {cand} out of bounds"
                )
            if cand in seen:
                raise ValidationError(f"doc {self.doc_id!r}: duplicate candidate {cand}")
            seen.add(cand)


@dataclass(frozen=True, order=True)
class MentionRecord:
    """A typed mention span, the unit of gold annotation."""

    doc_id: str
    sentence_idx: int
    start: int
    end: int
    type_name: str

    @property
    def key(self) -> SpanKey:
        return (self.doc_id, self.sentence_idx, self.start, self.end)


@dataclass(frozen=True, order=True, slots=True)
class PredictionRecord:
    """A typed mention span emitted by extraction, with its cosine score."""

    doc_id: str
    sentence_idx: int
    start: int
    end: int
    type_name: str
    score: float

    def __post_init__(self):
        if not (-1.0 - 1e-9 <= self.score <= 1.0 + 1e-9):
            raise ValidationError(f"prediction score {self.score} outside [-1, 1]")

    @property
    def key(self) -> SpanKey:
        return (self.doc_id, self.sentence_idx, self.start, self.end)


def _check_unique_keys(records, what: str):
    seen = set()
    for rec in records:
        if rec.key in seen:
            raise ValidationError(f"duplicate span key {rec.key} in {what}")
        seen.add(rec.key)


@dataclass(frozen=True)
class GoldMentionSet:
    records: tuple[MentionRecord, ...]

    def __post_init__(self):
        recs = tuple(sorted(self.records))
        _check_unique_keys(recs, "gold mention set")
        object.__setattr__(self, "records", recs)

    def __len__(self) -> int:
        return len(self.records)

    def keys(self) -> frozenset[SpanKey]:
        return frozenset(r.key for r in self.records)

    def typed_keys(self) -> frozenset[tuple[SpanKey, str]]:
        return frozenset((r.key, r.type_name) for r in self.records)

    def type_names(self) -> tuple[str, ...]:
        return tuple(r.type_name for r in self.records)


@dataclass(frozen=True)
class PredictionSet:
    records: tuple[PredictionRecord, ...]

    def __post_init__(self):
        recs = tuple(sorted(self.records))
        _check_unique_keys(recs, "prediction set")
        object.__setattr__(self, "records", recs)

    def __len__(self) -> int:
        return len(self.records)

    def keys(self) -> frozenset[SpanKey]:
        return frozenset(r.key for r in self.records)

    def typed_keys(self) -> frozenset[tuple[SpanKey, str]]:
        return frozenset((r.key, r.type_name) for r in self.records)


# ---------------------------------------------------------------------------
# jsonl helpers
# ---------------------------------------------------------------------------


def _read_lines(path) -> Iterator[tuple[int, dict]]:
    path = Path(path)
    if not path.exists():
        raise InputNotFoundError(f"input file not found: {path}")
    with path.open("r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ParseError(f"{path}:{lineno}: invalid JSON ({exc.msg})") from exc
            if not isinstance(record, dict):
                raise ParseError(f"{path}:{lineno}: record is not an object")
            yield lineno, record


def _field(record: dict, name: str, path, lineno: int):
    if name not in record:
        raise ParseError(f"{path}:{lineno}: missing field {name!r}")
    return record[name]


def _token_list(value, path, lineno: int, name: str) -> Tokens:
    if not isinstance(value, list) or not all(isinstance(t, str) for t in value):
        raise ParseError(f"{path}:{lineno}: field {name!r} must be a string array")
    return tuple(value)


def _write_lines(path, records: Iterable[dict]):
    path = Path(path)
    if not path.parent.exists():
        raise InputNotFoundError(f"parent directory does not exist: {path.parent}")
    with path.open("w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record, sort_keys=True))
            handle.write("\n")


# ---------------------------------------------------------------------------
# alignment corpus I/O
# ---------------------------------------------------------------------------


def load_alignment_corpus(path) -> AlignmentCorpus:
    """Load an alignment corpus; instance order equals file order.

    The definition inventory is accumulated from the records themselves.
    Raises :class:`ParseError` on malformed lines (naming the line number)
    and :class:`ValidationError` on invariant violations.
    """
    instances = []
    definitions: dict[str, Tokens] = {}
    text_to_id: dict[Tokens, str] = {}
    for lineno, record in _read_lines(path):
        sentence = _token_list(_field(record, "sentence", path, lineno), path, lineno, "sentence")
        definition = _token_list(
            _field(record, "definition", path, lineno), path, lineno, "definition"
        )
        start = _field(record, "start", path, lineno)
        end = _field(record, "end", path, lineno)
        definition_id = _field(record, "definition_id", path, lineno)
        # exact types: a JSON true/false loads as bool, which is an int subclass
        if type(start) is not int or type(end) is not int:
            raise ParseError(f"{path}:{lineno}: start/end must be integers")
        if not isinstance(definition_id, str):
            raise ParseError(f"{path}:{lineno}: definition_id must be a string")
        try:
            inst = AlignmentInstance(sentence, start, end, definition, definition_id)
        except ValidationError as exc:
            raise ValidationError(f"{path}:{lineno}: {exc}") from exc
        known = definitions.get(definition_id)
        if known is not None and known != inst.definition:
            raise ValidationError(
                f"{path}:{lineno}: definition_id {definition_id!r} already bound to a "
                "different definition text"
            )
        owner = text_to_id.get(inst.definition)
        if owner is not None and owner != definition_id:
            raise ValidationError(
                f"{path}:{lineno}: definition text already bound to id {owner!r}; "
                f"got second id {definition_id!r}"
            )
        definitions[definition_id] = inst.definition
        text_to_id[inst.definition] = definition_id
        instances.append(inst)
    return AlignmentCorpus(tuple(instances), definitions)


def save_alignment_corpus(corpus: AlignmentCorpus, path) -> None:
    """Write a corpus as alignment records.

    Every inventory definition must be carried by at least one instance,
    otherwise the file could not round-trip; orphan definitions raise.
    """
    carried = {inst.definition_id for inst in corpus.instances}
    orphans = sorted(set(corpus.definitions) - carried)
    if orphans:
        raise ValidationError(
            f"cannot serialize corpus: definitions without instances: {orphans[:5]}"
        )
    _write_lines(
        path,
        (
            {
                "sentence": list(inst.sentence),
                "start": inst.start,
                "end": inst.end,
                "definition": list(inst.definition),
                "definition_id": inst.definition_id,
            }
            for inst in corpus.instances
        ),
    )


def subsample_per_definition(corpus: AlignmentCorpus, k: int, seed) -> AlignmentCorpus:
    """Keep at most ``k`` instances per definition, sampled uniformly without
    replacement.  The definition inventory is left unchanged.  Surviving
    instances keep their original order.
    """
    if not isinstance(k, int) or k < 1:
        raise ArgumentError(f"k must be a positive integer, got {k!r}")
    rng = np.random.default_rng(seed)
    by_definition: dict[str, list[int]] = {}
    for idx, inst in enumerate(corpus.instances):
        by_definition.setdefault(inst.definition_id, []).append(idx)
    keep: set[int] = set()
    for definition_id in sorted(by_definition):
        indices = by_definition[definition_id]
        if len(indices) <= k:
            keep.update(indices)
        else:
            chosen = rng.choice(len(indices), size=k, replace=False)
            keep.update(indices[i] for i in chosen)
    instances = tuple(corpus.instances[i] for i in sorted(keep))
    return AlignmentCorpus(instances, dict(corpus.definitions))


# ---------------------------------------------------------------------------
# ontology, documents, gold, predictions I/O
# ---------------------------------------------------------------------------


def load_ontology(path) -> EventOntology:
    types = []
    for lineno, record in _read_lines(path):
        name = _field(record, "type_name", path, lineno)
        definition = _token_list(
            _field(record, "definition", path, lineno), path, lineno, "definition"
        )
        if not isinstance(name, str):
            raise ParseError(f"{path}:{lineno}: type_name must be a string")
        types.append((name, definition))
    return EventOntology(tuple(types))


def save_ontology(ontology: EventOntology, path) -> None:
    _write_lines(
        path,
        ({"type_name": name, "definition": list(tokens)} for name, tokens in ontology.types),
    )


def load_documents(path) -> tuple[Document, ...]:
    docs = []
    seen = set()
    for lineno, record in _read_lines(path):
        doc_id = _field(record, "doc_id", path, lineno)
        sentences = _field(record, "sentences", path, lineno)
        candidates = _field(record, "candidates", path, lineno)
        if not isinstance(doc_id, str):
            raise ParseError(f"{path}:{lineno}: doc_id must be a string")
        if not isinstance(sentences, list):
            raise ParseError(f"{path}:{lineno}: sentences must be an array")
        sents = tuple(_token_list(s, path, lineno, "sentences") for s in sentences)
        if not isinstance(candidates, list):
            raise ParseError(f"{path}:{lineno}: candidates must be an array")
        cands = []
        for cand in candidates:
            if not (isinstance(cand, list) and len(cand) == 3 and all(type(x) is int for x in cand)):
                raise ParseError(f"{path}:{lineno}: candidate {cand!r} must be [sent_idx, start, end]")
            cands.append(tuple(cand))
        if doc_id in seen:
            raise ValidationError(f"{path}:{lineno}: duplicate doc_id {doc_id!r}")
        seen.add(doc_id)
        try:
            docs.append(Document(doc_id, sents, tuple(cands)))
        except ValidationError as exc:
            raise ValidationError(f"{path}:{lineno}: {exc}") from exc
    return tuple(docs)


def save_documents(documents: Sequence[Document], path) -> None:
    _write_lines(
        path,
        (
            {
                "doc_id": doc.doc_id,
                "sentences": [list(s) for s in doc.sentences],
                "candidates": [list(c) for c in doc.candidates],
            }
            for doc in documents
        ),
    )


def _load_mention_records(path, with_score: bool):
    records = []
    for lineno, record in _read_lines(path):
        args = {
            "doc_id": _field(record, "doc_id", path, lineno),
            "sentence_idx": _field(record, "sentence_idx", path, lineno),
            "start": _field(record, "start", path, lineno),
            "end": _field(record, "end", path, lineno),
            "type_name": _field(record, "type_name", path, lineno),
        }
        if not isinstance(args["doc_id"], str) or not isinstance(args["type_name"], str):
            raise ParseError(f"{path}:{lineno}: doc_id/type_name must be strings")
        if not all(type(args[k]) is int for k in ("sentence_idx", "start", "end")):
            raise ParseError(f"{path}:{lineno}: sentence_idx/start/end must be integers")
        if with_score:
            score = _field(record, "score", path, lineno)
            if not isinstance(score, (int, float)):
                raise ParseError(f"{path}:{lineno}: score must be a number")
            records.append(PredictionRecord(score=float(score), **args))
        else:
            records.append(MentionRecord(**args))
    return records


def load_gold(path) -> GoldMentionSet:
    return GoldMentionSet(tuple(_load_mention_records(path, with_score=False)))


def save_gold(gold: GoldMentionSet, path) -> None:
    _write_lines(
        path,
        (
            {
                "doc_id": r.doc_id,
                "sentence_idx": r.sentence_idx,
                "start": r.start,
                "end": r.end,
                "type_name": r.type_name,
            }
            for r in gold.records
        ),
    )


def load_predictions(path) -> PredictionSet:
    return PredictionSet(tuple(_load_mention_records(path, with_score=True)))


def save_predictions(preds: PredictionSet, path) -> None:
    _write_lines(
        path,
        (
            {
                "doc_id": r.doc_id,
                "sentence_idx": r.sentence_idx,
                "start": r.start,
                "end": r.end,
                "type_name": r.type_name,
                "score": r.score,
            }
            for r in preds.records
        ),
    )


def validate_against_ontology(mentions, ontology: EventOntology) -> None:
    """Check that every record's type resolves in the governing ontology."""
    for record in mentions.records:
        if record.type_name not in ontology:
            raise ValidationError(
                f"type {record.type_name!r} (at {record.key}) does not resolve in the ontology"
            )


def all_candidate_keys(documents: Sequence[Document]) -> tuple[SpanKey, ...]:
    """Flatten the candidate spans of a document collection into span keys."""
    keys = []
    for doc in documents:
        for sent_idx, start, end in doc.candidates:
            keys.append((doc.doc_id, sent_idx, start, end))
    return tuple(keys)


# ---------------------------------------------------------------------------
# synthetic corpus generation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SyntheticSpec:
    """Shape of a generated desk-scale dataset.

    ``confusability`` is either ``"disjoint"`` (every type has its own
    trigger vocabulary) or ``"confusable"`` (types are paired; both types in
    a pair share trigger surface forms and are distinguishable only through
    per-type cue words planted in the context, and their definitions differ
    in a single token).
    """

    n_types: int = 20
    triggers_per_type: int = 2
    mentions_per_type: int = 50
    confusability: str = "disjoint"
    instances_per_definition: int = 10
    n_distractor_definitions: int = 6
    neighbors_per_type: int = 1
    sentences_per_document: int = 4
    negative_sentences_per_document: int = 1
    distractors_in_gold_sentences: bool = False
    min_sentence_length: int = 5
    max_sentence_length: int = 8
    n_filler_words: int = 40

    def __post_init__(self):
        if self.n_types < 2:
            raise ArgumentError("n_types must be at least 2")
        if self.triggers_per_type < 1:
            raise ArgumentError("triggers_per_type must be at least 1")
        if self.mentions_per_type < 1:
            raise ArgumentError("mentions_per_type must be at least 1")
        if self.confusability not in ("disjoint", "confusable"):
            raise ArgumentError(
                f"confusability must be 'disjoint' or 'confusable', got {self.confusability!r}"
            )
        if self.instances_per_definition < 1:
            raise ArgumentError("instances_per_definition must be at least 1")
        if self.n_distractor_definitions < 1:
            raise ArgumentError("at least one distractor definition is required")
        if self.neighbors_per_type < 0:
            raise ArgumentError("neighbors_per_type must be non-negative")
        if self.min_sentence_length < 3 or self.max_sentence_length < self.min_sentence_length:
            raise ArgumentError("sentence length bounds are inconsistent")


_WORD_SUPPLY_SEED = 20260811
_DEFINITION_WORDS = 4


class _WordSupply:
    """Deterministic stream of unique pseudo-random letter words.

    Stemless word shapes keep the learned sub-word table from inventing
    pieces shared across unrelated vocabulary items.
    """

    def __init__(self, word_length: int = 4):
        self._rng = np.random.default_rng(_WORD_SUPPLY_SEED)
        self._seen: set[str] = set()
        self._length = word_length

    def take(self, n: int) -> tuple[str, ...]:
        out = []
        while len(out) < n:
            letters = self._rng.integers(0, 26, size=self._length)
            word = "".join(chr(97 + int(c)) for c in letters)
            if word not in self._seen:
                self._seen.add(word)
                out.append(word)
        return tuple(out)


def _build_vocab(spec: SyntheticSpec):
    """Deterministic filler/trigger/cue/definition vocabulary.

    Returns ``(fillers, types, neighbors, distractors)``:

    * ``types`` -- ``(name, triggers, cues, definition)`` per target type.
      Target definitions open with a shared two-word scaffold (event glosses
      share phrasing) followed by type-specific content words.  In
      confusable mode, paired types share their trigger surface forms and
      all but the last definition token; cue words planted in the context
      are what tells them apart.
    * ``neighbors`` -- ``(definition_id, triggers, definition)`` sense
      siblings: near-duplicate glosses of a target (last content word
      replaced) with their own trigger words.  They populate the alignment
      inventory as persistent hard negatives but never surface as document
      candidates.
    * ``distractors`` -- far senses built from fully distinct words; their
      triggers supply the documents' negative candidate spans.
    """
    supply = _WordSupply()
    fillers = supply.take(spec.n_filler_words)
    target_scaffold = supply.take(2)
    types = []
    if spec.confusability == "disjoint":
        for t in range(spec.n_types):
            triggers = supply.take(spec.triggers_per_type)
            definition = target_scaffold + supply.take(_DEFINITION_WORDS)
            types.append((f"etype{t:02d}", triggers, (), definition))
    else:
        pair_triggers = {}
        pair_stems = {}
        for t in range(spec.n_types):
            pair = t // 2
            if pair not in pair_triggers:
                pair_triggers[pair] = supply.take(spec.triggers_per_type)
                pair_stems[pair] = supply.take(_DEFINITION_WORDS - 1)
            cue = supply.take(1)
            definition = target_scaffold + pair_stems[pair] + supply.take(1)
            types.append((f"etype{t:02d}", pair_triggers[pair], cue, definition))
    neighbors = []
    for name, _, _, definition in types:
        for s in range(spec.neighbors_per_type):
            sibling = definition[:-1] + supply.take(1)
            neighbors.append((f"nbr:{name}:{s}", supply.take(spec.triggers_per_type), sibling))
    distractors = []
    for n in range(spec.n_distractor_definitions):
        triggers = supply.take(spec.triggers_per_type)
        definition = supply.take(_DEFINITION_WORDS + 2)
        distractors.append((f"dist{n:02d}", triggers, definition))
    return fillers, types, neighbors, distractors


def _make_sentence(rng, fillers, length, inserts):
    """A filler sentence with ``inserts`` (token, tag) placed at distinct
    random positions; returns (tokens, {tag: index})."""
    tokens = [fillers[i] for i in rng.integers(0, len(fillers), size=length)]
    positions = rng.choice(length, size=len(inserts), replace=False)
    placed = {}
    for (token, tag), pos in zip(inserts, positions):
        tokens[int(pos)] = token
        placed[tag] = int(pos)
    return tokens, placed


def generate_synthetic_corpus(spec: SyntheticSpec, seed):
    """Generate a self-consistent (alignment corpus, ontology, documents,
    gold mentions) quadruple.

    Every gold mention's trigger comes from its type's trigger vocabulary,
    the alignment inventory contains the ontology definitions plus
    distractor definitions (each with its own instances), and gold spans are
    a subset of the documents' candidate spans.  Deterministic per seed.
    """
    rng = np.random.default_rng(seed)
    fillers, types, neighbors, distractors = _build_vocab(spec)

    def sentence_length():
        return int(rng.integers(spec.min_sentence_length, spec.max_sentence_length + 1))

    # alignment instances: targets first (ontology order), then neighbors,
    # then distractors
    instances = []
    definitions: dict[str, Tokens] = {}
    for name, triggers, cues, definition in types:
        definition_id = f"def:{name}"
        definitions[definition_id] = definition
        for _ in range(spec.instances_per_definition):
            trigger = triggers[int(rng.integers(0, len(triggers)))]
            inserts = [(trigger, "mention")] + [(cue, f"cue{i}") for i, cue in enumerate(cues)]
            tokens, placed = _make_sentence(rng, fillers, sentence_length(), inserts)
            pos = placed["mention"]
            instances.append(AlignmentInstance(tuple(tokens), pos, pos, definition, definition_id))
    for definition_id, triggers, definition in list(neighbors) + list(distractors):
        definitions[definition_id] = definition
        for _ in range(spec.instances_per_definition):
            trigger = triggers[int(rng.integers(0, len(triggers)))]
            tokens, placed = _make_sentence(rng, fillers, sentence_length(), [(trigger, "mention")])
            pos = placed["mention"]
            instances.append(AlignmentInstance(tuple(tokens), pos, pos, definition, definition_id))
    corpus = AlignmentCorpus(tuple(instances), definitions)
    ontology = EventOntology(tuple((name, definition) for name, _, _, definition in types))

    # evaluation documents with gold mentions and distractor candidates
    mention_plan = []
    for t, (name, triggers, cues, _) in enumerate(types):
        for _ in range(spec.mentions_per_type):
            mention_plan.append(t)
    order = rng.permutation(len(mention_plan))
    mention_plan = [mention_plan[i] for i in order]

    def distractor_trigger():
        d = distractors[int(rng.integers(0, len(distractors)))]
        return d[1][int(rng.integers(0, len(d[1])))]

    documents = []
    gold_records = []
    cursor = 0
    doc_idx = 0
    while cursor < len(mention_plan):
        chunk = mention_plan[cursor : cursor + spec.sentences_per_document]
        cursor += len(chunk)
        doc_id = f"doc{doc_idx:04d}"
        doc_idx += 1
        sentences = []
        candidates = []
        for t in chunk:
            name, triggers, cues, _ = types[t]
            trigger = triggers[int(rng.integers(0, len(triggers)))]
            inserts = [(trigger, "mention")]
            if spec.distractors_in_gold_sentences:
                inserts.append((distractor_trigger(), "neg"))
            inserts += [(cue, f"cue{i}") for i, cue in enumerate(cues)]
            tokens, placed = _make_sentence(rng, fillers, sentence_length(), inserts)
            sent_idx = len(sentences)
            sentences.append(tuple(tokens))
            pos = placed["mention"]
            candidates.append((sent_idx, pos, pos))
            if "neg" in placed:
                candidates.append((sent_idx, placed["neg"], placed["neg"]))
            gold_records.append(MentionRecord(doc_id, sent_idx, pos, pos, name))
        for _ in range(spec.negative_sentences_per_document):
            inserts = [(distractor_trigger(), "neg0"), (distractor_trigger(), "neg1")]
            tokens, placed = _make_sentence(rng, fillers, sentence_length(), inserts)
            sent_idx = len(sentences)
            sentences.append(tuple(tokens))
            for tag in ("neg0", "neg1"):
                span = (sent_idx, placed[tag], placed[tag])
                if span not in candidates:
                    candidates.append(span)
        documents.append(Document(doc_id, tuple(sentences), tuple(candidates)))
    gold = GoldMentionSet(tuple(gold_records))
    return corpus, ontology, tuple(documents), gold


def split_documents(documents: Sequence[Document], gold: GoldMentionSet, eval_fraction: float, seed):
    """Split documents (and their gold records) into train and eval halves.

    Returns ``(train_docs, train_gold, eval_docs, eval_gold)``; deterministic
    per seed.
    """
    if not (0.0 < eval_fraction < 1.0):
        raise ArgumentError("eval_fraction must be in (0, 1)")
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(documents))
    n_eval = max(1, int(round(eval_fraction * len(documents))))
    eval_ids = {documents[i].doc_id for i in order[:n_eval]}
    train_docs = tuple(d for d in documents if d.doc_id not in eval_ids)
    eval_docs = tuple(d for d in documents if d.doc_id in eval_ids)
    train_gold = GoldMentionSet(tuple(r for r in gold.records if r.doc_id not in eval_ids))
    eval_gold = GoldMentionSet(tuple(r for r in gold.records if r.doc_id in eval_ids))
    return train_docs, train_gold, eval_docs, eval_gold


def subsample_gold(gold: GoldMentionSet, fraction: float, seed) -> GoldMentionSet:
    """Uniform sample of gold records (at least one), for annotation-budget
    experiments."""
    if not (0.0 < fraction <= 1.0):
        raise ArgumentError("fraction must be in (0, 1]")
    if fraction == 1.0:
        return gold
    rng = np.random.default_rng(seed)
    n = max(1, int(round(fraction * len(gold.records))))
    chosen = rng.choice(len(gold.records), size=n, replace=False)
    return GoldMentionSet(tuple(gold.records[i] for i in sorted(chosen)))
