"""The two token encoders, mention/definition vector heads, and checkpoints.

The model holds two structurally identical transformer encoders with fully
independent parameters: one contextualizes mention sentences, the other
definition sentences.  Mention vectors are plain means of the context
encoder's sub-token states over the mention span.  Definition vectors pass
every sub-token state through a two-layer feed-forward head before
averaging.  Vectors are stored un-normalized; cosine normalizes at
comparison time.

One pooling path serves training, retrieval, indexing and extraction:
:meth:`DualEncoderModel.encode_pooled` encodes id sequences in length-sorted
padded batches and averages inclusive sub-token ranges, with a backward
pass for training.  Pooling reads only the positions its ranges cover, so
the last block computes queries, feed-forward and output norm only there
(keys and values still span the whole sequence); a batch in which some row
is pooled whole runs every position, as definitions always do.

Parameter arrays are read-only outside :meth:`DualEncoderModel.writable`,
which the optimizer step enters, so :meth:`DualEncoderModel.fingerprint` can
tell that a model is unchanged without reading its parameters.
"""

from __future__ import annotations

import errno
import hashlib
import math
import json
import zipfile
import zlib
from contextlib import contextmanager
from dataclasses import dataclass, asdict
from pathlib import Path
from typing import Sequence

import numpy as np

from . import nn
from .errors import (
    ArgumentError,
    DegenerateVectorError,
    InputNotFoundError,
    NumericalError,
    ParseError,
    TruncationError,
    ValidationError,
)
from .tokenizer import build_tokenizer, tokenizer_from_dict

CHECKPOINT_FORMAT_VERSION = 1

CONTEXT = "context"
DEFINITION = "definition"
_PREFIX = {CONTEXT: "ctx.", DEFINITION: "defn."}

# Sequences per encoder forward in encode_pooled.  Measured in process CPU
# time with one BLAS thread on a 2-core x86 VM, default EncoderConfig:
# extracting the default synthetic corpus (1250 sentences) took 0.20 / 0.27 /
# 0.29 / 0.31 s at 16 / 32 / 64 / 128 (0.73 s one sentence at a time), but two
# pretraining epochs took 2.0 s at 16 and 1.8 s at 64, when a training step
# still encoded all 48 definition slots.  A default step (16 instances, each
# with its positive and 2 negatives) now encodes each distinct definition
# once: at most 48 sequences, about 31 on the default corpus, so 64 keeps a
# step in one forward per side.  Since the last block runs only at pooled
# positions, a context batch's last block costs what its mentions' sub-tokens
# cost, whatever the batch size; the earlier blocks still run every padded
# position.
ENCODE_BATCH_SIZE = 64

# what np.load and reading its members raise on a file that is no intact
# .npz archive: zipfile raises NotImplementedError on garbled header flags
# and OSError(EINVAL) on a seek to a garbled negative offset; a .npy file
# makes the ``with`` raise TypeError
_UNREADABLE_ARCHIVE = (EOFError, NotImplementedError, OSError, TypeError, ValueError,
                       zipfile.BadZipFile, zlib.error)


@dataclass(frozen=True)
class EncoderConfig:
    """Architecture knobs shared by both encoders."""

    vocab_size: int = 1024
    embedding_dim: int = 64
    n_layers: int = 2
    n_heads: int = 4
    ffn_head_hidden: int | None = None  # None -> embedding_dim
    block_ffn_hidden: int | None = None  # None -> 2 * embedding_dim
    max_sequence_length: int = 128
    tokenizer: str = "subword"  # or "identity"
    init_std: float = 0.05
    position_scale: float = 0.01
    residual_init_scale: float | None = None  # None -> 1 / sqrt(2 * n_layers)

    def __post_init__(self):
        if self.embedding_dim <= 0 or self.n_layers <= 0 or self.n_heads <= 0:
            raise ArgumentError("all encoder dimensions must be positive")
        if self.embedding_dim % self.n_heads != 0:
            raise ArgumentError("embedding_dim must be divisible by n_heads")
        if self.vocab_size < 8:
            raise ArgumentError("vocab_size must be at least 8")
        if self.max_sequence_length < 2:
            raise ArgumentError("max_sequence_length must be at least 2")
        if self.tokenizer not in ("subword", "identity"):
            raise ArgumentError(f"unknown tokenizer scheme {self.tokenizer!r}")
        if not self.init_std > 0:
            raise ArgumentError("init_std must be positive")
        for name in ("ffn_head_hidden", "block_ffn_hidden"):
            if getattr(self, name) is not None and getattr(self, name) < 1:
                raise ArgumentError(f"{name} must be at least 1, or null for its default")
        if not self.position_scale >= 0:
            raise ArgumentError("position_scale must be non-negative")
        if self.residual_init_scale is not None and not self.residual_init_scale >= 0:
            raise ArgumentError("residual_init_scale must be non-negative, or null for its default")

    @property
    def head_hidden(self) -> int:
        return self.ffn_head_hidden or self.embedding_dim

    @property
    def block_hidden(self) -> int:
        return self.block_ffn_hidden or 2 * self.embedding_dim


def sub_token_range(word_spans: Sequence[tuple[int, int]], start: int,
                    end: int) -> tuple[int, int]:
    """Map an inclusive word span to the inclusive sub-token range, given a
    tokenizer's word -> sub-token span map."""
    if not 0 <= start <= end < len(word_spans):
        raise ArgumentError(f"word span ({start}, {end}) is empty or outside {len(word_spans)} words")
    return word_spans[start][0], word_spans[end][1]


@dataclass(frozen=True)
class MentionVector:
    values: np.ndarray


def cosine(u, v) -> float:
    """Cosine similarity of two non-zero vectors; raises on zero input."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    nu = np.linalg.norm(u)
    nv = np.linalg.norm(v)
    if nu == 0.0 or nv == 0.0:
        raise DegenerateVectorError("cosine of a zero vector is undefined")
    return float(np.dot(u, v) / (nu * nv))


class TokenEncoder:
    """One transformer encoder: embeddings + pre-norm blocks + final norm."""

    def __init__(self, config: EncoderConfig, params: dict[str, np.ndarray]):
        self.config = config
        self.params = params
        self._positions = nn.sinusoidal_positions(
            config.max_sequence_length, config.embedding_dim
        ) * config.position_scale

    @classmethod
    def create(cls, config: EncoderConfig, vocab_size: int, rng: np.random.Generator):
        d = config.embedding_dim
        h = config.block_hidden
        std = config.init_std
        # residual branches start small so token identity dominates the
        # stream early; attention/ffn influence grows only if training asks
        factor = config.residual_init_scale
        if factor is None:
            factor = 1.0 / math.sqrt(2.0 * config.n_layers)
        residual_std = std * factor
        params: dict[str, np.ndarray] = {}
        params["emb"] = rng.normal(0.0, std, size=(vocab_size, d))
        for layer in range(config.n_layers):
            p = f"b{layer}"
            params[f"{p}.ln1.g"] = np.ones(d)
            params[f"{p}.ln1.b"] = np.zeros(d)
            for name in ("wq", "wk", "wv"):
                params[f"{p}.attn.{name}"] = rng.normal(0.0, std, size=(d, d))
            params[f"{p}.attn.wo"] = rng.normal(0.0, residual_std, size=(d, d))
            for name in ("bq", "bk", "bv", "bo"):
                params[f"{p}.attn.{name}"] = np.zeros(d)
            params[f"{p}.ln2.g"] = np.ones(d)
            params[f"{p}.ln2.b"] = np.zeros(d)
            params[f"{p}.ffn.w1"] = rng.normal(0.0, std, size=(d, h))
            params[f"{p}.ffn.b1"] = np.zeros(h)
            params[f"{p}.ffn.w2"] = rng.normal(0.0, residual_std, size=(h, d))
            params[f"{p}.ffn.b2"] = np.zeros(d)
        params["out_ln.g"] = np.ones(d)
        params["out_ln.b"] = np.zeros(d)
        return cls(config, params)

    def copy(self) -> "TokenEncoder":
        return TokenEncoder(self.config, {k: v.copy() for k, v in self.params.items()})

    def forward(self, ids: np.ndarray, mask: np.ndarray, keep_caches: bool = False,
                positions=None):
        """ids (B, L) int64, mask (B, L) in {0, 1} -> states (B, L, dim),
        plus the cache :meth:`backward` needs with ``keep_caches`` (else
        None, so a forward-only pass holds one sublayer's activations at a
        time).  With ``positions``, an index of distinct positions per row
        as :func:`nn.block_forward` takes it, the last block runs only those
        queries and the states are (B, Lq, dim), ``full_states[positions]``."""
        length = ids.shape[1]
        if length > self.config.max_sequence_length:
            raise TruncationError(
                f"sequence of {length} sub-tokens exceeds the maximum of "
                f"{self.config.max_sequence_length}; refusing to truncate"
            )
        x = self.params["emb"][ids] + self._positions[:length]
        caches = []
        last = self.config.n_layers - 1
        for layer in range(self.config.n_layers):
            x, cache = nn.block_forward(x, self.params, f"b{layer}", mask, self.config.n_heads,
                                        keep_caches, positions if layer == last else None)
            caches.append(cache)
        out, ln_cache = nn.layer_norm_forward(x, self.params["out_ln.g"], self.params["out_ln.b"])
        return out, (ids, caches, ln_cache) if keep_caches else None

    def backward(self, d_states: np.ndarray, cache):
        ids, caches, ln_cache = cache
        grads: dict[str, np.ndarray] = {}
        dx, dg, db = nn.layer_norm_backward(d_states, ln_cache)
        grads["out_ln.g"] = dg
        grads["out_ln.b"] = db
        for layer in reversed(range(self.config.n_layers)):
            dx, block_grads = nn.block_backward(dx, caches[layer], self.params, f"b{layer}")
            grads.update(block_grads)
        demb = np.zeros_like(self.params["emb"])
        np.add.at(demb, ids.reshape(-1), dx.reshape(-1, dx.shape[-1]))
        grads["emb"] = demb
        return grads


class TwoLayerHead:
    """Affine -> nonlinearity -> affine map applied to definition sub-token
    states before averaging."""

    # the only head: checkpoints record it as ``head_kind`` and the
    # fingerprint header ends with it
    kind = "two_layer"

    def __init__(self, params: dict[str, np.ndarray]):
        self.params = params

    @classmethod
    def create(cls, config: EncoderConfig, rng: np.random.Generator):
        d = config.embedding_dim
        h = config.head_hidden
        params = {
            "w1": rng.normal(0.0, config.init_std, size=(d, h)),
            "b1": np.zeros(h),
            "w2": rng.normal(0.0, config.init_std, size=(h, d)),
            "b2": np.zeros(d),
        }
        return cls(params)

    def copy(self) -> "TwoLayerHead":
        return TwoLayerHead({k: v.copy() for k, v in self.params.items()})

    def forward(self, x):
        f1, f1_cache = nn.linear_forward(x, self.params["w1"], self.params["b1"])
        a1, gelu_cache = nn.gelu_forward(f1)
        out, f2_cache = nn.linear_forward(a1, self.params["w2"], self.params["b2"])
        return out, (f1_cache, gelu_cache, f2_cache)

    def backward(self, dout, cache):
        f1_cache, gelu_cache, f2_cache = cache
        grads = {}
        da1, grads["w2"], grads["b2"] = nn.linear_backward(dout, f2_cache)
        df1 = nn.gelu_backward(da1, gelu_cache)
        dx, grads["w1"], grads["b1"] = nn.linear_backward(df1, f1_cache)
        return dx, grads


class DualEncoderModel:
    """Two independent token encoders plus the definition-side head.

    The context and definition encoders share no parameters; the head
    applies only to definition states.
    """

    def __init__(self, config: EncoderConfig, tokenizer, context_encoder: TokenEncoder,
                 definition_encoder: TokenEncoder, ffn_head):
        self.config = config
        self.tokenizer = tokenizer
        self.context_encoder = context_encoder
        self.definition_encoder = definition_encoder
        self.ffn_head = ffn_head
        _freeze(self.parameters().values())
        # (header sources, header, hashed parameter dicts, hex digest) of the
        # last fingerprint
        self._hashed = None

    # -- construction -------------------------------------------------------

    @classmethod
    def initialize(cls, config: EncoderConfig, word_source, seed) -> "DualEncoderModel":
        """Fit the tokenizer on ``word_source`` (an iterable of words or an
        alignment corpus) and draw fresh parameters."""
        words = word_source.all_words() if hasattr(word_source, "all_words") else word_source
        tokenizer = build_tokenizer(config.tokenizer, words, config.vocab_size)
        rng = np.random.default_rng([int(seed) & 0xFFFFFFFF, 0x5EED])
        ctx = TokenEncoder.create(config, len(tokenizer), rng)
        defn = TokenEncoder.create(config, len(tokenizer), rng)
        head = TwoLayerHead.create(config, rng)
        return cls(config, tokenizer, ctx, defn, head)

    def copy(self) -> "DualEncoderModel":
        return DualEncoderModel(
            self.config,
            self.tokenizer,
            self.context_encoder.copy(),
            self.definition_encoder.copy(),
            self.ffn_head.copy(),
        )

    # -- parameter plumbing -------------------------------------------------

    def parameters(self) -> dict[str, np.ndarray]:
        params = {}
        for name, array in self.context_encoder.params.items():
            params[f"ctx.{name}"] = array
        for name, array in self.definition_encoder.params.items():
            params[f"defn.{name}"] = array
        for name, array in self.ffn_head.params.items():
            params[f"head.{name}"] = array
        return params

    @contextmanager
    def writable(self):
        """Let the parameter arrays be written in place for the duration of
        the ``with`` block, as an optimizer step does.  On exit the arrays
        of :meth:`parameters` are read-only again and the kept fingerprint is
        dropped, so the next :meth:`fingerprint` hashes the new state.
        Outside this block a write to a parameter raises numpy's
        ``ValueError: assignment destination is read-only``.  The block does
        not nest, and a :meth:`fingerprint` call inside it freezes the
        arrays it hashes."""
        for array in self.parameters().values():
            array.setflags(write=True)
        try:
            yield
        finally:
            self._hashed = None
            _freeze(self.parameters().values())

    def fingerprint(self) -> str:
        """Content hash of config, tokenizer, and every parameter tensor:
        sha256 over the config and tokenizer JSON, the head kind
        ``"two_layer"``, then each parameter's name and bytes in name order.

        Parameter arrays are read-only outside :meth:`writable`, so an
        array that is still read-only still holds the bytes it was hashed
        with.  The digest is kept with the serialized header, the objects
        the header was built from (``config``, ``tokenizer`` and
        ``tokenizer.pieces``) and the items of the three parameter dicts.  A
        later call returns the kept digest without reading a parameter byte
        when the header objects, the three dicts and the array under every
        name are the same objects and every array is still read-only.
        Objects are compared by identity, not ``==``, because equal configs
        can serialize differently (``0.0 == -0.0``).  In every other case,
        such as a replaced array or one flagged writable, it hashes from
        scratch and then freezes the arrays it hashed.  Bytes, not floats,
        are hashed, so ``0.0`` -> ``-0.0`` or a changed NaN payload is a new
        state.

        The freshness check cannot see a write made by a caller that flags
        an array writable itself, writes and freezes it again, nor a write
        through a view taken inside :meth:`writable` and kept past its exit.
        No code in this package does either.
        """
        sources = (self.config, self.tokenizer, self.tokenizer.pieces)
        dicts = (self.context_encoder.params, self.definition_encoder.params, self.ffn_head.params)
        header = None
        if self._hashed is not None:
            kept_sources, kept_header, kept_items, kept_digest = self._hashed
            if all(now is then for now, then in zip(sources, kept_sources)):
                header = kept_header
                if all(_unchanged(params, then, items)
                       for params, (then, items) in zip(dicts, kept_items)):
                    return kept_digest
        if header is None:
            header = b"".join((
                json.dumps(asdict(self.config), sort_keys=True).encode(),
                json.dumps(self.tokenizer.to_dict(), sort_keys=True).encode(),
                TwoLayerHead.kind.encode(),
            ))
        params = self.parameters()
        digest = hashlib.sha256(header)
        for name in sorted(params):
            digest.update(name.encode())
            digest.update(np.ascontiguousarray(params[name]))
        _freeze(params.values())
        hexdigest = digest.hexdigest()
        kept_items = tuple((d, tuple(d.items())) for d in dicts)
        self._hashed = (sources, header, kept_items, hexdigest)
        return hexdigest

    # -- encoding -----------------------------------------------------------

    def _encoder(self, side: str) -> TokenEncoder:
        if side == CONTEXT:
            return self.context_encoder
        if side == DEFINITION:
            return self.definition_encoder
        raise ArgumentError(f"unknown encoder side {side!r}")

    def encode_batch(self, side: str, id_sequences: Sequence[Sequence[int]], counter=None,
                     keep_caches: bool = False, positions=None):
        """Encode already-tokenized id sequences; returns (states, mask,
        cache), the cache None unless ``keep_caches``.  States are (B, L,
        dim), or (B, Lq, dim) at ``positions`` (see
        :meth:`TokenEncoder.forward`).  Counts one encoder call per
        sequence."""
        ids, mask = nn.pad_batch(id_sequences, self.tokenizer.pad_id)
        states, cache = self._encoder(side).forward(ids, mask, keep_caches, positions)
        if counter is not None:
            counter.record(side, len(id_sequences))
        return states, mask, cache

    def encode_pooled(self, side: str, id_sequences: Sequence[Sequence[int]],
                      ranges: Sequence[tuple[int, int, int]] | None = None,
                      counter=None, keep_caches: bool = False, head: bool = True):
        """Mean encoder states over sub-token ranges of many sequences.

        ``ranges`` holds one ``(row, lo, hi)`` per output vector: the
        inclusive sub-token range ``lo..hi`` of ``id_sequences[row]``.  A row
        may carry several ranges; rows without one are not encoded.  ``None``
        pools each whole sequence.  Definition states pass through the head
        before averaging, in the forward and the backward, unless ``head``
        is false (retrieval's plain sentence embedding); context states never
        do.  Rows are encoded shortest first, in padded batches of
        ``ENCODE_BATCH_SIZE``, through :meth:`encode_batch`, whose last block
        runs only the positions the batch's ranges cover (see
        :func:`_pooled_positions`).

        Returns ``(vectors, backward)``.  With ``keep_caches``,
        ``backward(d_vectors)`` maps the gradient of the vectors to
        gradients keyed like :meth:`parameters`; otherwise it is ``None``.
        """
        encoder = self._encoder(side)
        head = head and side == DEFINITION
        if ranges is None:
            ranges = [(row, 0, len(seq) - 1) for row, seq in enumerate(id_sequences)]
        outputs_of: dict[int, list[int]] = {}
        for k, (row, lo, hi) in enumerate(ranges):
            if not (0 <= row < len(id_sequences) and 0 <= lo <= hi < len(id_sequences[row])):
                raise ArgumentError(
                    f"range ({row}, {lo}, {hi}) does not lie inside one of the "
                    f"{len(id_sequences)} sequences"
                )
            outputs_of.setdefault(row, []).append(k)
        by_length = sorted(outputs_of, key=lambda row: len(id_sequences[row]))
        vectors = np.empty((len(ranges), self.config.embedding_dim))
        steps = []
        for first in range(0, len(by_length), ENCODE_BATCH_SIZE):
            # rows keep their input order inside a batch
            rows = sorted(by_length[first : first + ENCODE_BATCH_SIZE])
            # outputs come grouped by row, so a row's sum is one segment sum
            outs, out_rows, row_starts = [], [], []
            for i, row in enumerate(rows):
                row_starts.append(len(outs))
                outs += outputs_of[row]
                out_rows += [i] * len(outputs_of[row])
            out_rows = np.array(out_rows)
            weights = np.zeros((len(outs), max(len(id_sequences[row]) for row in rows)))
            for j, k in enumerate(outs):
                _, lo, hi = ranges[k]
                weights[j, lo : hi + 1] = 1.0
            positions, weights = _pooled_positions(weights, out_rows, row_starts)
            states, _, cache = self.encode_batch(side, [id_sequences[r] for r in rows], counter,
                                                 keep_caches, positions)
            head_cache = None
            if head:
                states, head_cache = self.ffn_head.forward(states)
            counts = weights.sum(axis=1)
            vectors[outs] = (weights[:, :, None] * states[out_rows]).sum(axis=1) / counts[:, None]
            if keep_caches:
                steps.append((outs, row_starts, weights, counts, cache, head_cache))
            del states, cache, head_cache  # else they would live through the next forward
        if not keep_caches:
            return vectors, None

        def backward(d_vectors: np.ndarray) -> dict[str, np.ndarray]:
            grads: dict[str, np.ndarray] = {}
            for outs, row_starts, weights, counts, cache, head_cache in steps:
                share = (d_vectors[outs] / counts[:, None])[:, None, :]
                d_states = np.add.reduceat(weights[:, :, None] * share, row_starts, axis=0)
                batch_grads = {}
                if head:
                    d_states, head_grads = self.ffn_head.backward(d_states, head_cache)
                    batch_grads = {f"head.{name}": g for name, g in head_grads.items()}
                for name, g in encoder.backward(d_states, cache).items():
                    batch_grads[_PREFIX[side] + name] = g
                for name, g in batch_grads.items():
                    grads[name] = grads[name] + g if name in grads else g
            return grads

        return vectors, backward

    def mention_vector(self, sentence: Sequence[str], span: tuple[int, int],
                       counter=None) -> MentionVector:
        """Mean of the context states covering the inclusive word span."""
        ids, word_spans = self.tokenizer.encode_words(sentence)
        lo, hi = sub_token_range(word_spans, *span)
        vectors, _ = self.encode_pooled(CONTEXT, [ids], [(0, lo, hi)], counter=counter)
        return MentionVector(vectors[0])

    # -- persistence ----------------------------------------------------------

    def save(self, path) -> None:
        """Write a self-describing archive: config, tokenizer table, both
        encoders' parameters, format version."""
        path = Path(path)
        meta = {
            "format_version": CHECKPOINT_FORMAT_VERSION,
            "config": asdict(self.config),
            "tokenizer": self.tokenizer.to_dict(),
            "head_kind": TwoLayerHead.kind,
        }
        arrays = {f"param/{k}": v for k, v in self.parameters().items()}
        np.savez(path, meta=np.array(json.dumps(meta, sort_keys=True)), **arrays)

    @classmethod
    def load(cls, path) -> "DualEncoderModel":
        """Read a checkpoint written by :meth:`save`.  Its parameters must
        have exactly the names, shapes and dtype that :meth:`initialize`
        draws for its config and tokenizer, and finite values."""
        meta, arrays = load_archive(path, "checkpoint")
        version = meta.get("format_version")
        if version != CHECKPOINT_FORMAT_VERSION:
            raise ValidationError(
                f"checkpoint format version {version!r} does not match "
                f"supported version {CHECKPOINT_FORMAT_VERSION}"
            )
        if "config" not in meta or "tokenizer" not in meta:
            raise ValidationError(f"{path} is not a model checkpoint: its meta has no config "
                                  f"or tokenizer")
        try:
            config = EncoderConfig(**meta["config"])
            tokenizer = tokenizer_from_dict(meta["tokenizer"])
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise ValidationError(f"{path}: malformed checkpoint meta: {exc!r}") from None
        head_kind = meta.get("head_kind", TwoLayerHead.kind)
        if head_kind != TwoLayerHead.kind:
            raise ValidationError(f"{path}: unknown head kind {head_kind!r}")
        expected = {f"param/{name}": shape
                    for name, shape in _parameter_shapes(config, len(tokenizer)).items()}
        if arrays.keys() != expected.keys():
            raise ValidationError(
                f"{path}: checkpoint arrays do not match its config: missing "
                f"{sorted(expected.keys() - arrays.keys())}, unexpected "
                f"{sorted(arrays.keys() - expected.keys())}"
            )
        for key, shape in expected.items():
            array = arrays[key]
            if array.shape != shape or array.dtype != np.float64:
                raise ValidationError(
                    f"{path}: {key} is {array.dtype} {array.shape}, expected float64 {shape}"
                )
            if not np.all(np.isfinite(array)):
                raise NumericalError(f"{path}: {key} holds NaN or inf")

        def part(prefix):
            prefix = f"param/{prefix}"
            return {k[len(prefix):]: v for k, v in arrays.items() if k.startswith(prefix)}

        return cls(config, tokenizer, TokenEncoder(config, part("ctx.")),
                   TokenEncoder(config, part("defn.")), TwoLayerHead(part("head.")))


def _freeze(arrays) -> None:
    for array in arrays:
        array.setflags(write=False)


def _unchanged(params: dict[str, np.ndarray], kept: dict[str, np.ndarray],
               items: tuple[tuple[str, np.ndarray], ...]) -> bool:
    """Whether ``params`` is the dict ``kept`` that held ``items`` when
    hashed, still holds those read-only arrays under those names, and
    nothing else."""
    return params is kept and len(params) == len(items) and all(
        params.get(name) is array and not array.flags.writeable for name, array in items
    )


def _pooled_positions(weights: np.ndarray, out_rows: np.ndarray, row_starts: list[int]):
    """The positions a batch's pooling reads, for the last encoder block.

    ``weights`` (n, L) holds each output's 0/1 range over its row
    ``out_rows[j]``; rows start at ``row_starts``.  Returns ``(positions,
    weights)``: an index for :func:`nn.block_forward` and the weights at the
    positions it picks.  It picks each row's read positions in ascending
    order, padded with unread ones up to the widest row's count; a lone
    range is a basic slice.  When some row reads every position it returns
    ``(None, weights)``, so the block computes all of them.
    """
    if len(weights) == 1:
        read = np.flatnonzero(weights[0])
        window = slice(read[0], read[-1] + 1)
        if len(read) == weights.shape[1]:
            return None, weights
        return (slice(None), window), weights[:, window]
    read = np.add.reduceat(weights, row_starts, axis=0) > 0.0
    width = read.sum(axis=1).max()
    if width == weights.shape[1]:
        return None, weights
    picked = np.argsort(~read, axis=1, kind="stable")[:, :width]
    positions = (np.arange(len(picked))[:, None], picked)
    return positions, np.take_along_axis(weights, picked[out_rows], axis=1)


def _parameter_shapes(config: EncoderConfig, vocab_size: int) -> dict[str, tuple[int, ...]]:
    """Name -> shape of every parameter :meth:`DualEncoderModel.initialize`
    draws, keyed like :meth:`DualEncoderModel.parameters`."""
    rng = np.random.default_rng(0)
    encoder = TokenEncoder.create(config, vocab_size, rng)
    shapes = {prefix + name: array.shape
              for prefix in _PREFIX.values() for name, array in encoder.params.items()}
    shapes.update({f"head.{name}": array.shape
                   for name, array in TwoLayerHead.create(config, rng).params.items()})
    return shapes


def load_archive(path, what: str) -> tuple[dict, dict[str, np.ndarray]]:
    """The JSON ``meta`` object and the other arrays of an ``.npz`` archive
    written with a ``meta`` string, as checkpoints are.  A missing file
    raises :class:`InputNotFoundError`; a file that is no readable ``.npz``,
    or whose meta is not a JSON object, raises :class:`ParseError`; an
    archive without meta, :class:`ValidationError`."""
    path = Path(path)
    if not path.exists():
        raise InputNotFoundError(f"{what} not found: {path}")
    try:
        # np.load leaves a file it opened itself open when the zip parse fails
        with open(path, "rb") as handle, np.load(handle, allow_pickle=False) as archive:
            arrays = {name: archive[name] for name in archive.files}
    except _UNREADABLE_ARCHIVE as exc:
        if isinstance(exc, OSError) and exc.errno != errno.EINVAL:
            raise  # an I/O failure, not a malformed file
        raise ParseError(f"{path} is not a readable .npz {what}: {exc!r}") from None
    if "meta" not in arrays:
        raise ValidationError(f"{path} is not a {what}: it has no meta record")
    try:
        meta = json.loads(str(arrays.pop("meta")))
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: {what} meta is not JSON: {exc}") from None
    if not isinstance(meta, dict):
        raise ParseError(f"{path}: {what} meta is not a JSON object")
    return meta, arrays
