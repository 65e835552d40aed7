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

Each field must have the JSON type its record class declares (see
:func:`json_type_check`): a ``bool`` is not an integer, a ``score`` is a
finite number, and keys a record does not declare are ignored.

Objects are immutable after construction and safe to share between
concurrent readers.
"""

from __future__ import annotations

import dataclasses
import json
import math
import sys
import typing
from dataclasses import dataclass
from pathlib import Path
from types import UnionType
from typing import Callable, Iterable, Iterator, Mapping, Sequence

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
        # a corpus repeats a small vocabulary; one object per distinct word
        object.__setattr__(self, "sentence", tuple(map(sys.intern, self.sentence)))
        object.__setattr__(self, "definition", tuple(map(sys.intern, self.definition)))
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
            repeated = next(name for i, name in enumerate(names) if name in names[:i])
            raise ValidationError(f"ontology contains duplicate type name {repeated!r}")
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
        # a corpus repeats a small vocabulary; one object per distinct word
        object.__setattr__(self, "sentences",
                           tuple(tuple(map(sys.intern, s)) for s in self.sentences))
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


@dataclass(frozen=True)
class _SpanSet:
    """Span records sorted, with each span key at most once."""

    records: tuple

    def __post_init__(self):
        recs = tuple(sorted(self.records))
        seen = set()
        for rec in recs:
            if rec.key in seen:
                raise ValidationError(f"duplicate span key {rec.key} in {type(self).__name__}")
            seen.add(rec.key)
        object.__setattr__(self, "records", recs)

    def __len__(self) -> int:
        return len(self.records)

    def keys(self) -> frozenset[SpanKey]:
        return frozenset(r.key for r in self.records)

    def typed_keys(self) -> frozenset[tuple[SpanKey, str]]:
        return frozenset((r.key, r.type_name) for r in self.records)


@dataclass(frozen=True)
class GoldMentionSet(_SpanSet):
    records: tuple[MentionRecord, ...]


@dataclass(frozen=True)
class PredictionSet(_SpanSet):
    records: tuple[PredictionRecord, ...]


@dataclass(frozen=True)
class _OntologyLine:
    """One ``ontology.jsonl`` record."""

    type_name: str
    definition: Tokens

    def __post_init__(self):
        if not self.type_name:
            raise ValidationError("ontology contains an empty type name")
        if not self.definition:
            raise ValidationError(f"type {self.type_name!r} has an empty definition")


# ---------------------------------------------------------------------------
# jsonl helpers
# ---------------------------------------------------------------------------


_JSON_NAMES = {str: "string", int: "integer", bool: "boolean", type(None): "null"}


def _is_finite_number(value) -> bool:
    try:
        return type(value) in (int, float) and math.isfinite(value)
    except OverflowError:  # an int beyond float range
        return False


def json_type_check(annotation) -> tuple[Callable[[object], bool], str]:
    """Return a predicate for "this JSON value has the annotated type" and
    the type's name for messages.

    JSON values come as exact built-in types: ``bool`` is not an ``int``, an
    ``int`` is a ``float``, and a float must be finite.  A ``tuple`` is a JSON
    array of one item type (``tuple[int, int, int]`` also fixes its length);
    unions are allowed.
    """
    origin, args = typing.get_origin(annotation), typing.get_args(annotation)
    if origin in (typing.Union, UnionType):
        parts = [json_type_check(arg) for arg in args]
        return (lambda v: any(check(v) for check, _ in parts)), " or ".join(n for _, n in parts)
    if origin is tuple:  # one item type: tuple[X, ...] or tuple[X, X, X]
        length = None if args[-1] is Ellipsis else len(args)
        item_check, item_name = json_type_check(args[0])
        name = f"[{item_name}, ...]" if length is None else f"[{', '.join([item_name] * length)}]"
        if args[0] in _JSON_NAMES:  # an exact type: no Python call per item
            kinds = {args[0]}
            return (lambda v: type(v) is list and (length is None or len(v) == length)
                    and kinds.issuperset(map(type, v))), name
        return (lambda v: type(v) is list and (length is None or len(v) == length)
                and all(map(item_check, v))), name
    if annotation is float:
        return _is_finite_number, "finite number"
    return (lambda v: type(v) is annotation), _JSON_NAMES[annotation]


def check_json_fields(cls, payload, where: str) -> None:
    """Raise :class:`ValidationError` unless ``payload`` is a JSON object
    whose every key is a field of the dataclass ``cls`` holding a value of
    the field's type (see :func:`json_type_check`).  ``where`` names the
    object in messages."""
    if not isinstance(payload, dict):
        raise ValidationError(f"{where} must be an object")
    unknown = set(payload) - {f.name for f in dataclasses.fields(cls)}
    if unknown:
        raise ValidationError(f"unknown key(s) in {where}: {sorted(unknown)}")
    types = typing.get_type_hints(cls)
    for key, value in payload.items():
        check, kind = json_type_check(types[key])
        if not check(value):
            raise ValidationError(f"{where} key {key!r} must be {kind}, got {value!r}")


def _read_lines(path) -> Iterator[tuple[int, dict]]:
    path = Path(path)
    if not path.exists():
        raise InputNotFoundError(f"input file not found: {path}")
    with path.open("rb") as handle:
        for lineno, raw in enumerate(handle, start=1):
            try:
                line = raw.decode("utf-8").strip()
            except UnicodeDecodeError as exc:
                raise ParseError(f"{path}:{lineno}: invalid UTF-8 ({exc.reason})") from exc
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ParseError(f"{path}:{lineno}: invalid JSON ({exc.msg})") from exc
            if not isinstance(record, dict):
                raise ParseError(f"{path}:{lineno}: record is not an object")
            yield lineno, record


def _read_records(path, cls) -> Iterator[tuple[int, object]]:
    """Yield ``(line number, cls(**fields))`` for each record of a JSONL file,
    each field checked against the type ``cls`` declares for it."""
    hints = typing.get_type_hints(cls)
    checks = [(name, *json_type_check(hint)) for name, hint in hints.items()]
    for lineno, record in _read_lines(path):
        try:
            values = {name: record[name] for name in hints}
        except KeyError as exc:
            raise ParseError(f"{path}:{lineno}: missing field {exc.args[0]!r}") from None
        for name, check, kind in checks:
            if not check(values[name]):
                raise ParseError(f"{path}:{lineno}: field {name!r} must be {kind}")
        try:
            made = cls(**values)
        except ValidationError as exc:
            raise ValidationError(f"{path}:{lineno}: {exc}") from exc
        yield lineno, made


def _write_records(path, records: Iterable) -> None:
    """Write one JSON object per dataclass record, its fields as the keys."""
    path = Path(path)
    if not path.parent.exists():
        raise InputNotFoundError(f"parent directory does not exist: {path.parent}")
    with path.open("w", encoding="utf-8") as handle:
        for record in records:
            row = {f.name: getattr(record, f.name) for f in dataclasses.fields(record)}
            handle.write(json.dumps(row, sort_keys=True))
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
    for lineno, inst in _read_records(path, AlignmentInstance):
        definition_id = inst.definition_id
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
    _write_records(path, corpus.instances)


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


def _load_unique(path, cls, build, key, what: str):
    """``build`` the records of a JSONL file, rejecting the first record
    whose ``key`` an earlier record has as ``path:line: duplicate <what>
    <key>``."""
    records, seen = [], set()
    for lineno, record in _read_records(path, cls):
        if key(record) in seen:
            raise ValidationError(f"{path}:{lineno}: duplicate {what} {key(record)!r}")
        seen.add(key(record))
        records.append(record)
    return build(tuple(records))


def load_ontology(path) -> EventOntology:
    return _load_unique(
        path, _OntologyLine,
        lambda lines: EventOntology(tuple((line.type_name, line.definition) for line in lines)),
        lambda line: line.type_name, "type name",
    )


def save_ontology(ontology: EventOntology, path) -> None:
    _write_records(path, (_OntologyLine(*entry) for entry in ontology.types))


def load_documents(path) -> tuple[Document, ...]:
    return _load_unique(path, Document, tuple, lambda doc: doc.doc_id, "doc_id")


def save_documents(documents: Sequence[Document], path) -> None:
    _write_records(path, documents)


def load_gold(path) -> GoldMentionSet:
    return _load_unique(path, MentionRecord, GoldMentionSet, lambda rec: rec.key, "span key")


def save_gold(gold: GoldMentionSet, path) -> None:
    _write_records(path, gold.records)


def load_predictions(path) -> PredictionSet:
    return _load_unique(path, PredictionRecord, PredictionSet, lambda rec: rec.key, "span key")


def save_predictions(preds: PredictionSet, path) -> None:
    _write_records(path, preds.records)


def validate_against_ontology(mentions, ontology: EventOntology) -> None:
    """Check that every record's type resolves in the governing ontology."""
    for record in mentions.records:
        if record.type_name not in ontology:
            raise ValidationError(
                f"type {record.type_name!r} (at {record.key}) does not resolve in the ontology"
            )


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
