"""Toy pre-norm transformer decoder over cascade attention masks.

Attention runs over the mask's blocks (``AttentionMask.blocks``): maximal
runs of live rows inside one layout segment, read off the segment table.
A block gathers its keys once, the live positions its segment may see;
keys outside that set are never read, and a gathered key in a row's causal
tail gets weight exactly 0.  So, for finite inputs, no masked key can change
any output bit — which is what turns the cascade-mask independence claims
into exact, testable identities.  Blocks stop at segment boundaries, so the
length of every reduction a row takes part in depends only on its own
segment; isolating an object therefore leaves the kept rows bit-identical.
``forward`` rejects a mask built for another layout than the sequence's.
Separator and dead rows emit the zero vector.

Decoding fills pre-allocated output slots (dead until filled, so positions
never move) one object after another.  Chunk i's first token is predicted
at the last position of mask segment i — the only row whose visible set is
exactly what chunk i may use — and each later token at the slot before it.
No row reads a slot filled after it, so each decode step equals one
teacher-forced forward over the decoded output with its unused trailing
slots dead, under every ``CascadeConfig``.

Every mask segment comes before every output chunk, so the rows before
the first slot see no slot: one prefix pass over those rows, through their
blocks, fixes their keys, values and anchor logits for the whole decode.
Each later step runs only the current chunk's filled slots through the
layers against the cached keys and values.  The step's keys are the keys of
the chunk's block that are filled, so the step forms the one block
``forward`` would form over those slots; a chunk whose first slot a later
chunk's block holds is run once more when it stops, to cache its last
token.  Each step computes the same products over the same rows as that
forward, and ``_dense`` pads the few-row ones, so for the weight shapes the
tests pin the decode is bit-equal to one full forward per token.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field, fields

import numpy as np
from scipy.special import erf

from .attnmask import (
    MASK,
    OUT,
    SEP,
    TEXT,
    IMAGE,
    AttentionMask,
    CascadeConfig,
    SequenceLayout,
    build_cascade_mask,
)
from .maskio import _readonly
from .prng import Xoshiro256StarStar, quantized_uniform
from .prompt import OUTPUT_SLOTS, PromptBatch

PAD, START, SEP_TOKEN, END = "<pad>", "<start>", "<sep>", "<end>"
SPECIALS = (PAD, START, SEP_TOKEN, END)

_LN_EPS = 1e-5
_MAGIC = b"DEC0"
_HEADER_BYTES = 24


def make_vocab(words) -> tuple[str, ...]:
    """Vocab with the four specials first (pad=0, start=1, sep=2, end=3)."""
    return SPECIALS + tuple(words)


@dataclass(frozen=True)
class LayerWeights:
    ln1_g: np.ndarray
    ln1_b: np.ndarray
    wq: np.ndarray
    wk: np.ndarray
    wv: np.ndarray
    wo: np.ndarray
    ln2_g: np.ndarray
    ln2_b: np.ndarray
    w1: np.ndarray
    w2: np.ndarray


@dataclass(frozen=True)
class DecoderParams:
    """All decoder weights plus the vocabulary.

    ``_weight_layout`` lists the weight tensors; ``seeded`` draws them in
    that order with ``prng.quantized_uniform``.
    """

    vocab: tuple[str, ...]
    heads: int
    embed: np.ndarray = field(repr=False)
    pos: np.ndarray = field(repr=False)
    adapter: np.ndarray = field(repr=False)
    blocks: tuple[LayerWeights, ...] = field(repr=False)
    ln_f_g: np.ndarray = field(repr=False)
    ln_f_b: np.ndarray = field(repr=False)
    head: np.ndarray = field(repr=False)

    def __post_init__(self):
        self._check_sizes(heads=self.heads, dim=self.dim, enc_dim=self.enc_dim)
        if self.dim % self.heads != 0:
            raise ValueError("dim must be divisible by heads")
        if not all(isinstance(w, str) for w in self.vocab) or len(set(self.vocab)) < len(self.vocab):
            raise ValueError("vocab error: entries must be distinct strings")
        # a decoded label joins words with spaces and encode_label splits it
        # on whitespace, so an entry must survive that split whole
        for w in self.vocab:
            if w.split() != [w]:
                raise ValueError(f"vocab error: entry {w!r} is not one word")
        for special in SPECIALS:
            if special not in self.vocab:
                raise ValueError(f"config error: vocabulary missing special {special!r}")

    @staticmethod
    def _check_sizes(**sizes) -> None:
        for name, size in sizes.items():
            if size < 1:
                raise ValueError(f"decoder {name} must be >= 1, got {size}")

    @property
    def dim(self) -> int:
        return self.embed.shape[1]

    @property
    def layers(self) -> int:
        return len(self.blocks)

    @property
    def max_len(self) -> int:
        return self.pos.shape[0]

    @property
    def enc_dim(self) -> int:
        return self.adapter.shape[0]

    def check_length(self, n: int) -> None:
        """Reject a sequence of more than ``max_len`` positions."""
        if n > self.max_len:
            raise ValueError(f"sequence length {n} exceeds max_len {self.max_len}")

    def token_id(self, token: str) -> int:
        try:
            return self.vocab.index(token)
        except ValueError:
            raise ValueError(f"vocab error: unknown token {token!r}") from None

    @property
    def pad_id(self) -> int:
        return self.vocab.index(PAD)

    @property
    def end_id(self) -> int:
        return self.vocab.index(END)

    @property
    def sep_id(self) -> int:
        return self.vocab.index(SEP_TOKEN)

    @classmethod
    def seeded(
        cls,
        seed: int,
        vocab,
        dim: int = 32,
        heads: int = 2,
        layers: int = 2,
        enc_dim: int = 16,
        max_len: int = 2048,
    ) -> "DecoderParams":
        cls._check_sizes(heads=heads, dim=dim, enc_dim=enc_dim)  # a fan-in below 1 has no 1/sqrt to draw from
        vocab = tuple(vocab)
        rng = Xoshiro256StarStar(seed)

        def draw(name, shape, fan_in):
            if fan_in is not None:
                return quantized_uniform(rng, fan_in, shape)
            return np.ones(shape) if name.endswith("_g") else np.zeros(shape)

        layout = _weight_layout(len(vocab), dim, layers, enc_dim, max_len)
        tensors = {name: draw(name, shape, fan_in) for name, shape, fan_in in layout}
        return cls._from_tensors(tensors, vocab, heads, layers)

    @classmethod
    def _from_tensors(cls, tensors: dict, vocab, heads: int, layers: int) -> "DecoderParams":
        """Params from the ``_weight_layout`` tensors by name."""
        blocks = tuple(
            LayerWeights(**{f.name: tensors.pop(f"blocks.{i}.{f.name}") for f in fields(LayerWeights)})
            for i in range(layers)
        )
        return cls(vocab=vocab, heads=heads, blocks=blocks, **tensors)


def _weight_layout(v: int, dim: int, layers: int, enc_dim: int, max_len: int):
    """Every weight tensor as ``(name, shape, fan_in)``, in draw order, which
    is also the DEC0 file order.  Layer tensors are named ``blocks.<i>.<field>``.
    ``fan_in`` None marks a layernorm tensor, which is not drawn: scales
    (``_g``) start at one, shifts (``_b``) at zero."""
    d4 = 4 * dim
    layer = [("ln1_g", (dim,), None), ("ln1_b", (dim,), None), ("wq", (dim, dim), dim), ("wk", (dim, dim), dim),
             ("wv", (dim, dim), dim), ("wo", (dim, dim), dim), ("ln2_g", (dim,), None), ("ln2_b", (dim,), None),
             ("w1", (dim, d4), dim), ("w2", (d4, dim), d4)]
    return [
        ("embed", (v, dim), dim),
        ("pos", (max_len, dim), dim),
        ("adapter", (enc_dim, dim), enc_dim),
        *((f"blocks.{i}.{name}", shape, fan_in) for i in range(layers) for name, shape, fan_in in layer),
        ("ln_f_g", (dim,), None),
        ("ln_f_b", (dim,), None),
        ("head", (dim, v), dim),
    ]


@dataclass(frozen=True)
class TokenSequence:
    """Mixed stream aligned with a layout: vocab ids or injected vectors.

    ``ids[p] >= 0`` means position p carries a vocab token; ``ids[p] == -1``
    means the injected vector at row p feeds the adapter instead.
    """

    ids: np.ndarray = field(repr=False)
    injected: np.ndarray = field(repr=False)
    layout: SequenceLayout

    def __post_init__(self):
        ids = np.asarray(self.ids, dtype=np.int64)
        injected = np.asarray(self.injected, dtype=np.float64)
        if injected.ndim != 2 or injected.shape[0] != ids.shape[0]:
            raise ValueError("injected must be (n, enc_dim) aligned with ids")
        if self.layout.n != ids.shape[0]:
            raise ValueError("sequence length does not match layout")
        object.__setattr__(self, "ids", _readonly(ids))
        object.__setattr__(self, "injected", _readonly(injected))

    @property
    def n(self) -> int:
        return int(self.ids.shape[0])


@dataclass(frozen=True)
class DecodeResult:
    """Per-object labels and log-probabilities from one multi-mask pass."""

    labels: tuple[str, ...]
    stepwise_logprobs: tuple[tuple[float, ...], ...]
    per_object_logprob: tuple[float, ...]
    total_logprob_joint: float

    def __post_init__(self):
        if len(self.labels) != len(self.per_object_logprob):
            raise ValueError("labels and per_object_logprob lengths differ")
        for steps, total in zip(self.stepwise_logprobs, self.per_object_logprob):
            if abs(sum(steps) - total) > 1e-12 * max(1.0, abs(total)):
                raise ValueError("per_object_logprob must equal the sum of its steps")

    @classmethod
    def from_steps(cls, labels, stepwise_logprobs) -> "DecodeResult":
        """The result whose per-object log-probs sum each object's steps, and whose joint one sums those."""
        per_object = tuple(float(sum(steps)) for steps in stepwise_logprobs)
        return cls(tuple(labels), tuple(stepwise_logprobs), per_object, float(sum(per_object)))


# ---------------------------------------------------------------------------
# Forward pass
# ---------------------------------------------------------------------------


def _layer_norm(x: np.ndarray, g: np.ndarray, b: np.ndarray) -> np.ndarray:
    mean = x.mean(axis=-1, keepdims=True)
    var = ((x - mean) ** 2).mean(axis=-1, keepdims=True)
    return (x - mean) / np.sqrt(var + _LN_EPS) * g + b


def _gelu(x: np.ndarray) -> np.ndarray:
    return 0.5 * x * (1.0 + erf(x / np.sqrt(2.0)))


def log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


_MIN_ROWS = 16


def _dense(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``x @ w`` over at least ``_MIN_ROWS`` rows and a multiple of 8
    columns: fewer rows are padded by repeating x, other widths by zero
    columns of w.

    On OpenBLAS 0.3.31 a product of few rows takes other kernels, whose sums
    round differently, so a decode step's rows multiplied alone would not be
    bit-equal to the same rows of ``forward``'s n-row product.  From 16 rows
    on they are for the CLI and bench decoders' weight shapes (4 rows still
    differ at dim 128).  A width that leaves 1 to 4 over a multiple of 8 (a
    65-word head) differs at any row count unless it is padded.  Widths that
    are multiples of 8 keep the plain product.
    """
    m, c = x.shape[0], w.shape[1]
    if c % 8:
        w = np.pad(w, ((0, 0), (0, -c % 8)))
    if m < _MIN_ROWS:
        x = np.concatenate([x] * -(-_MIN_ROWS // m))
    return (x @ w)[:m, :c]


def _block_attention(q: np.ndarray, k: np.ndarray, v: np.ndarray, start: int, keys: np.ndarray,
                     heads: int) -> np.ndarray:
    """Multi-head attention of the query rows at positions ``start``,
    ``start + 1``, ... over the gathered ``keys`` (k and v hold their rows):
    one batched score matmul and one value matmul.

    A row's causal tail (gathered keys after the row) is set to -inf by
    selection, so it gets weight exactly 0.
    """
    rows, dim = q.shape
    m, dh = keys.size, dim // heads
    q_b = q.reshape(rows, heads, dh).transpose(1, 0, 2)  # (heads, rows, dh)
    k_b = k.reshape(m, heads, dh).transpose(1, 2, 0)  # (heads, dh, keys)
    v_b = v.reshape(m, heads, dh).transpose(1, 0, 2)  # (heads, keys, dh)
    sc = (q_b @ k_b) * (1.0 / np.sqrt(dh))
    sc = np.where(keys[None, :] > np.arange(start, start + rows)[:, None], -np.inf, sc)
    sc -= sc.max(axis=-1, keepdims=True)
    e_sc = np.exp(sc)
    w = e_sc / e_sc.sum(axis=-1, keepdims=True)
    return (w @ v_b).transpose(1, 0, 2).reshape(rows, dim)


def _layers(x: np.ndarray, rows: np.ndarray, attn_blocks, params: DecoderParams, cache) -> np.ndarray:
    """Every layer over the sorted sequence positions ``rows``; ``x`` holds
    their embedded input.  ``cache`` yields each layer's (k, v), (n, dim)
    arrays indexed by position, which take the rows' keys and values; then
    each ``(start, stop, keys)`` block, whose rows lie in ``rows``, attends
    over the rows of k and v at ``keys``.  Keys outside the set are never
    read; rows in no block get the zero vector.  Nothing here holds a pair
    past its layer's attention."""
    cache = iter(cache)
    for block in params.blocks:
        k, v = next(cache)
        h = _layer_norm(x, block.ln1_g, block.ln1_b)
        q = _dense(h, block.wq)
        k[rows] = _dense(h, block.wk)
        v[rows] = _dense(h, block.wv)
        a = np.zeros_like(h)
        for start, stop, keys in attn_blocks:
            i = np.searchsorted(rows, start)
            span = slice(i, i + stop - start)
            a[span] = _block_attention(q[span], k[keys], v[keys], start, keys, params.heads)
        a = _dense(a, block.wo)
        # free the layer's attention operands before the residual and the
        # MLP allocate: the peak of a score-sized forward depends on it
        del h, q, k, v
        x = x + a
        del a
        h = _layer_norm(x, block.ln2_g, block.ln2_b)
        x = x + _dense(_gelu(_dense(h, block.w1)), block.w2)
    return x


def _logits(x: np.ndarray, params: DecoderParams) -> np.ndarray:
    return _dense(_layer_norm(x, params.ln_f_g, params.ln_f_b), params.head)


def embed_sequence(seq: TokenSequence, params: DecoderParams) -> np.ndarray:
    """Vocab embeddings and adapter-projected injections, plus absolute positions."""
    n = seq.n
    params.check_length(n)
    ids = seq.ids
    if ids.max(initial=-1) >= len(params.vocab):
        raise ValueError("vocab error: token id out of range")
    x = np.empty((n, params.dim))
    id_rows = ids >= 0
    x[id_rows] = params.embed[ids[id_rows]]
    if (~id_rows).any():
        x[~id_rows] = seq.injected[~id_rows] @ params.adapter
    return x + params.pos[:n]


def forward(seq: TokenSequence, mask: AttentionMask, params: DecoderParams) -> np.ndarray:
    """Per-position logits under the given visibility mask."""
    if mask.layout != seq.layout:
        raise ValueError(f"shape error: mask layout {mask.layout.header()!r} "
                         f"is not the sequence layout {seq.layout.header()!r}")
    if not np.isfinite(seq.injected).all():
        raise ValueError("numeric error: non-finite injected values")
    # fresh keys and values per layer, freed once its attention is done; no
    # name here keeps the embedded input alive through the layers either
    shape = (seq.n, params.dim)
    cache = ((np.empty(shape), np.empty(shape)) for _ in params.blocks)
    return _logits(_layers(embed_sequence(seq, params), np.arange(seq.n), mask.blocks(), params, cache), params)


# ---------------------------------------------------------------------------
# Sequence assembly
# ---------------------------------------------------------------------------


def assemble_sequence(
    layout: SequenceLayout,
    params: DecoderParams,
    image_values: np.ndarray,
    mask_values: dict[int, np.ndarray],
    text_ids,
    output_ids: dict[int, list[int]] | None = None,
) -> TokenSequence:
    """Build the mixed token stream for a layout.

    ``image_values``/``mask_values`` are injected feature rows; separators
    get the sep token; output slots are padded beyond the provided gold ids.
    A layout longer than ``params.max_len`` is rejected before anything of
    its length is allocated.
    """
    params.check_length(layout.n)
    output_ids = output_ids or {}
    n = layout.n
    ids = np.full(n, params.pad_id, dtype=np.int64)
    injected = np.zeros((n, params.enc_dim))
    text_ids = list(text_ids)
    for seg, pos in zip(layout.segments, layout.starts):
        span = slice(pos, pos + seg.length)
        if seg.kind == IMAGE:
            if image_values.shape != (seg.length, params.enc_dim):
                raise ValueError("shape error: image segment does not match injected values")
            ids[span] = -1
            injected[span] = image_values
        elif seg.kind == TEXT:
            if len(text_ids) != seg.length:
                raise ValueError("shape error: text segment length mismatch")
            ids[span] = text_ids
        elif seg.kind == SEP:
            ids[span] = params.sep_id
        elif seg.kind == MASK:
            vals = mask_values[seg.index]
            if vals.shape != (seg.length, params.enc_dim):
                raise ValueError(f"shape error: mask segment {seg.index} mismatch")
            ids[span] = -1
            injected[span] = vals
        else:  # OUT
            gold = list(output_ids.get(seg.index, []))
            if len(gold) > seg.length:
                raise ValueError(f"output chunk {seg.index} overflows its slots")
            ids[pos : pos + len(gold)] = gold
    return TokenSequence(ids=ids, injected=injected, layout=layout)


def prompt_sequence(batch: PromptBatch, text_ids, params: DecoderParams, output_slots: int) -> TokenSequence:
    """The batch's prompt on ``batch.layout``: grid, text and mask tokens, every output slot padded."""
    grid, text_ids = batch.image_tokens, list(text_ids)
    if grid.dim != params.enc_dim:
        raise ValueError("shape error: encoder dim does not match adapter input")
    mask_values = {ts.mask_index: ts.tokens for ts in batch.mask_token_sets}
    return assemble_sequence(batch.layout(len(text_ids), output_slots), params, grid.tokens(), mask_values, text_ids)


def encode_label(label: str, params: DecoderParams) -> list[int]:
    """Whitespace-tokenised label to ids, with the trailing end token."""
    return [params.token_id(w) for w in label.split()] + [params.end_id]


# ---------------------------------------------------------------------------
# Multi-slot greedy decoding
# ---------------------------------------------------------------------------


def _chunk_rows(layout: SequenceLayout, i: int) -> tuple[np.ndarray, np.ndarray]:
    """Output chunk i's slots, and for each slot the row whose logits predict
    it: the last position of mask segment i for the first slot, the slot
    before it for every later one."""
    slots = layout.positions(OUT, i)
    return slots, np.append(layout.positions(MASK, i)[-1], slots)[: slots.size]


def decode_objects(
    batch: PromptBatch,
    text_ids,
    params: DecoderParams,
    config: CascadeConfig = CascadeConfig(),
    max_label_len: int = OUTPUT_SLOTS,
) -> DecodeResult:
    """Greedy-decode every object's label, one object after another.

    Each object gets ``max_label_len`` pre-allocated slots and stops at the
    end token or when they run out; then the next object starts.  The mask's
    blocks give every key set.  One prefix pass over the rows before the
    first slot caches each layer's keys and values there and gives each
    object's first-token logits at its anchor; each later token costs one
    pass of the object's filled slots, at most ``max_label_len`` rows, over
    the filled keys of the object's block.  Each step equals a
    teacher-forced ``forward`` over the decoded output (see the module
    docstring).
    """
    if max_label_len < 1:
        raise ValueError(f"max_label_len must be >= 1, got {max_label_len}")
    seq = prompt_sequence(batch, text_ids, params, max_label_len)
    layout = seq.layout
    blocks = build_cascade_mask(layout, config).blocks()
    first_slot = layout.n - layout.num_objects * max_label_len  # the chunks close the layout
    prefix = [b for b in blocks if b[0] < first_slot]
    chunks = blocks[len(prefix) :]  # one block per chunk, in object order
    unfilled = np.zeros(layout.n, dtype=bool)  # slots with no token yet
    unfilled[first_slot:] = True
    # the prefix rows see no slot, so their keys, values and logits never
    # change after this pass
    x = embed_sequence(seq, params)
    cache = [(np.empty_like(x), np.empty_like(x)) for _ in params.blocks]
    first_logits = _logits(_layers(x[:first_slot], np.arange(first_slot), prefix, params, cache), params)
    # how many chunk blocks hold each position: a chunk's own block holds its first slot
    readers = np.bincount(np.concatenate([np.zeros(0, dtype=np.int64), *(keys for *_, keys in chunks)]))
    steps, labels = [], []
    for i, (lo, hi, keys) in enumerate(chunks):

        def push(stop):
            """The chunk's filled rows through every layer over the block's filled keys."""
            return _layers(x[lo:stop], np.arange(lo, stop), [(lo, stop, keys[~unfilled[keys]])], params, cache)

        logits = first_logits[_chunk_rows(layout, i)[1][0]]
        lps, words = [], []
        for slot in range(lo, hi):
            tok = int(np.argmax(logits))
            lps.append(float(log_softmax(logits)[tok]))
            x[slot] = params.embed[tok] + params.pos[slot]
            unfilled[slot] = False
            if tok == params.end_id:
                break
            words.append(params.vocab[tok])
            if slot < hi - 1:
                logits = _logits(push(slot + 1)[-1:], params)[0]
        if readers[lo] > 1:  # later chunks read this one's keys and values, its last token's too
            push(slot + 1)
        steps.append(tuple(lps))
        labels.append(" ".join(words))

    return DecodeResult.from_steps(labels, steps)


# ---------------------------------------------------------------------------
# Isolation and teacher forcing
# ---------------------------------------------------------------------------


def isolate_single_mask(
    seq: TokenSequence,
    layout: SequenceLayout,
    keep: int,
    *,
    pad_id: int = 0,
) -> tuple[TokenSequence, AttentionMask]:
    """Pad out every other object's mask and output tokens and kill their
    rows and columns under the full cascade; positions (and hence position
    embeddings) are kept.

    ``pad_id`` defaults to 0, which is where make_vocab puts the pad token.
    ``layout`` must be ``seq.layout``.
    """
    if layout != seq.layout:
        raise ValueError(f"shape error: layout {layout.header()!r} is not the sequence's {seq.layout.header()!r}")
    k = layout.num_objects
    if not 0 <= keep < k:
        raise IndexError(f"keep {keep} out of range for K={k}")
    others = [layout.positions(kind, j) for j in range(k) if j != keep for kind in (MASK, OUT)]
    drop = np.concatenate(others) if others else np.zeros(0, dtype=np.int64)
    ids = seq.ids.copy()
    injected = seq.injected.copy()
    ids[drop] = pad_id
    injected[drop] = 0.0
    return (
        TokenSequence(ids=ids, injected=injected, layout=layout),
        build_cascade_mask(layout, CascadeConfig.full_cascade()).without(drop),
    )


def teacher_forced_loss(
    seq: TokenSequence,
    mask: AttentionMask,
    params: DecoderParams,
) -> float:
    """Mean cross-entropy over output-chunk token positions.

    Targets are the filled tokens of each output chunk (trailing pad slots
    are ignored), each predicted from its ``_chunk_rows`` row.  Every
    chunk's filled part must end with the end token.
    """
    layout = seq.layout
    pairs: list[tuple[int, int]] = []
    for i in range(layout.num_objects):
        slots, rows = _chunk_rows(layout, i)
        chunk_ids = seq.ids[slots]
        filled = np.flatnonzero(chunk_ids != params.pad_id)
        if filled.size == 0:
            raise ValueError(f"precondition violation: output chunk {i} is empty")
        if filled.size != filled[-1] + 1:
            raise ValueError(f"output chunk {i} has pad gaps")
        if chunk_ids[filled[-1]] != params.end_id:
            raise ValueError(f"precondition violation: chunk {i} does not end with {END!r}")
        pairs.extend(zip(rows[: filled.size].tolist(), chunk_ids[: filled.size].tolist()))
    if not pairs:
        raise ValueError("precondition violation: no output positions")
    logits = forward(seq, mask, params)
    total = 0.0
    for pred_pos, target in pairs:
        total -= float(log_softmax(logits[pred_pos])[target])
    return total / len(pairs)


# ---------------------------------------------------------------------------
# Serialisation: 8-byte core header (magic "DEC0", u16 dim, u8 heads,
# u8 layers), a 16-byte extension (u32 vocab size, u32 max_len, u32 enc_dim,
# u32 flags, always 1: absolute positions), then the ``_weight_layout`` tensors
# as little-endian float32, in order.  The vocabulary ships as a JSON array
# alongside.
# ---------------------------------------------------------------------------


def load_decoder_params(blob_path, vocab_path) -> DecoderParams:
    with open(vocab_path, "r", encoding="ascii") as fh:
        vocab = json.load(fh)
    if not isinstance(vocab, list):
        raise ValueError(f"vocab file {vocab_path} must hold a JSON array")
    with open(blob_path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != _MAGIC:
        raise ValueError(f"bad magic {blob[:4]!r}, expected {_MAGIC!r}")
    if len(blob) < _HEADER_BYTES:
        raise ValueError(f"decoder blob size mismatch: {len(blob)} bytes, the header alone is {_HEADER_BYTES}")
    dim, heads, layers = struct.unpack("<HBB", blob[4:8])
    vocab_size, max_len, enc_dim, flags = struct.unpack("<IIII", blob[8:_HEADER_BYTES])
    if vocab_size != len(vocab):
        raise ValueError("vocab size does not match blob header")
    if flags != 1:
        raise ValueError(f"decoder blob flags {flags}, expected 1 (absolute positions)")
    layout = _weight_layout(vocab_size, dim, layers, enc_dim, max_len)
    sizes = [int(np.prod(shape)) for _, shape, _ in layout]
    if 4 * sum(sizes) != len(blob) - _HEADER_BYTES:
        raise ValueError(
            f"decoder blob size mismatch: header implies {4 * sum(sizes)} weight bytes, found {len(blob) - _HEADER_BYTES}"
        )
    data = np.frombuffer(blob, dtype="<f4", offset=_HEADER_BYTES).astype(np.float64)
    if not np.isfinite(data).all():
        raise ValueError("numeric error: decoder blob holds a non-finite weight")
    chunks = np.split(data, np.cumsum(sizes)[:-1])
    tensors = {name: chunk.reshape(shape) for (name, shape, _), chunk in zip(layout, chunks)}
    return DecoderParams._from_tensors(tensors, tuple(vocab), heads, layers)
