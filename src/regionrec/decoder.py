"""Toy pre-norm transformer decoder with pluggable visibility masks.

Attention runs over segment blocks: maximal runs of rows inside one layout
segment in which every row sees its predecessor's keys plus, possibly,
itself.  A block gathers the key set of its last row once; keys outside
that set are never read, and a gathered key in a row's causal tail gets
weight exactly 0.  So, for finite inputs, no masked key can change any
output bit — which is what turns the cascade-mask independence claims into
exact, testable identities.  Blocks stop at segment boundaries, so the
length of every reduction a row takes part in depends only on its own
segment; isolating an object therefore leaves the kept rows bit-identical.
The forward needs the sequence's layout for this.  Fully masked rows emit
the zero vector.

Decoding fills pre-allocated output slots (dead until filled, so positions
never move) one object after another.  Chunk i's first token is predicted
at the last position of mask segment i — the only row whose visible set is
exactly what chunk i may use — and each later token at the slot before it.
No row reads a slot filled after it, so each decode step equals one
teacher-forced forward over the decoded output with its unused trailing
slots dead, under every ``CascadeConfig``.
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
    AttentionMaskMatrix,
    CascadeConfig,
    SequenceLayout,
    build_cascade_mask,
    canonical_layout,
)
from .prng import Xoshiro256StarStar, quantized_uniform
from .prompt import OUTPUT_SLOTS, PromptBatch

PAD, START, SEP_TOKEN, END = "<pad>", "<start>", "<sep>", "<end>"
SPECIALS = (PAD, START, SEP_TOKEN, END)

_LN_EPS = 1e-5
_MAGIC = b"DEC0"
_HEADER_BYTES = 24


def make_vocab(words) -> tuple[str, ...]:
    """Vocab with the four specials first (pad=0, start=1, sep=2, end=3)."""
    out = list(SPECIALS)
    for w in words:
        if w in out:
            raise ValueError(f"duplicate vocab entry {w!r}")
        out.append(w)
    return tuple(out)


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
    dim: int
    heads: int
    layers: int
    positional_mode: str
    max_len: int
    enc_dim: int
    embed: np.ndarray = field(repr=False)
    pos: np.ndarray = field(repr=False)
    adapter: np.ndarray = field(repr=False)
    blocks: tuple[LayerWeights, ...] = field(repr=False)
    ln_f_g: np.ndarray = field(repr=False)
    ln_f_b: np.ndarray = field(repr=False)
    head: np.ndarray = field(repr=False)

    def __post_init__(self):
        for name in ("heads", "dim", "enc_dim"):
            if getattr(self, name) < 1:
                raise ValueError(f"decoder {name} must be >= 1, got {getattr(self, name)}")
        if self.dim % self.heads != 0:
            raise ValueError("dim must be divisible by heads")
        if self.positional_mode not in ("absolute", "none"):
            raise ValueError("positional_mode must be 'absolute' or 'none'")
        for special in SPECIALS:
            if special not in self.vocab:
                raise ValueError(f"config error: vocabulary missing special {special!r}")

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
        positional_mode: str = "absolute",
        max_len: int = 2048,
    ) -> "DecoderParams":
        vocab = tuple(vocab)
        rng = Xoshiro256StarStar(seed)

        def draw(name, shape, fan_in):
            if fan_in is not None:
                return quantized_uniform(rng, fan_in, shape)
            return np.ones(shape) if name.endswith("_g") else np.zeros(shape)

        layout = _weight_layout(len(vocab), dim, layers, enc_dim, positional_mode, max_len)
        tensors = {name: draw(name, shape, fan_in) for name, shape, fan_in in layout}
        return cls._from_tensors(tensors, vocab=vocab, dim=dim, heads=heads, layers=layers,
                                 positional_mode=positional_mode, max_len=max_len, enc_dim=enc_dim)

    @classmethod
    def _from_tensors(cls, tensors: dict, **header) -> "DecoderParams":
        """Params from the scalar fields and the ``_weight_layout`` tensors by name."""
        blocks = tuple(
            LayerWeights(**{f.name: tensors.pop(f"blocks.{i}.{f.name}") for f in fields(LayerWeights)})
            for i in range(header["layers"])
        )
        tensors.setdefault("pos", np.zeros((0, header["dim"])))
        return cls(**header, blocks=blocks, **tensors)


def _weight_layout(v: int, dim: int, layers: int, enc_dim: int, positional_mode: str, max_len: int):
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
        *([("pos", (max_len, dim), dim)] if positional_mode == "absolute" else []),
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
    layout: SequenceLayout = None

    def __post_init__(self):
        ids = np.asarray(self.ids, dtype=np.int64).copy()
        injected = np.asarray(self.injected, dtype=np.float64).copy()
        if injected.ndim != 2 or injected.shape[0] != ids.shape[0]:
            raise ValueError("injected must be (n, enc_dim) aligned with ids")
        if self.layout is not None and self.layout.n != ids.shape[0]:
            raise ValueError("sequence length does not match layout")
        ids.flags.writeable = False
        injected.flags.writeable = False
        object.__setattr__(self, "ids", ids)
        object.__setattr__(self, "injected", injected)

    @property
    def n(self) -> int:
        return int(self.ids.shape[0])

    def with_ids(self, ids: np.ndarray) -> "TokenSequence":
        return TokenSequence(ids=ids, injected=self.injected, layout=self.layout)


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

    def to_json(self) -> str:
        return json.dumps(
            {
                "labels": list(self.labels),
                "stepwise_logprobs": [list(s) for s in self.stepwise_logprobs],
                "per_object_logprob": list(self.per_object_logprob),
                "total_logprob_joint": self.total_logprob_joint,
            },
            sort_keys=True,
        )


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


def _segment_blocks(bits: np.ndarray, layout: SequenceLayout) -> list[tuple[int, int, np.ndarray]]:
    """Query rows grouped as ``(start, stop, keys)`` attention blocks.

    A block is a maximal run of non-empty rows inside one layout segment in
    which every row sees exactly the previous row's keys, plus possibly
    itself; row r then sees the entries of ``keys`` (the last row's visible
    set) that are <= r.  Empty rows belong to no block.
    """
    n = bits.shape[0]
    live = bits.any(axis=1)
    changed = bits[1:] != bits[:-1]
    changed[np.arange(n - 1), np.arange(1, n)] = False  # the later row's own diagonal
    starts = live.copy()
    starts[1:] &= ~(live[:-1] & ~changed.any(axis=1))
    seg_starts = np.cumsum([0] + [seg.length for seg in layout.segments])[:-1]
    seg_starts = seg_starts[seg_starts < n]
    starts[seg_starts] = live[seg_starts]
    first = np.flatnonzero(starts)
    bounds = np.append(np.flatnonzero(starts | ~live), n)
    stops = bounds[np.searchsorted(bounds, first, side="right")]
    return [(int(a), int(b), np.flatnonzero(bits[b - 1])) for a, b in zip(first, stops)]


def _attention(x_norm: np.ndarray, block: LayerWeights, heads: int, attn_blocks) -> np.ndarray:
    """Multi-head attention: per ``_segment_blocks`` block, one key gather,
    one batched score matmul and one value matmul.

    A row's causal tail (gathered keys after the row) is set to -inf by
    selection, so it gets weight exactly 0; keys outside the gathered set
    are never read.  Rows in no block produce the zero vector.
    """
    n, dim = x_norm.shape
    dh = dim // heads
    scale = 1.0 / np.sqrt(dh)
    q = x_norm @ block.wq
    k = x_norm @ block.wk
    v = x_norm @ block.wv

    out = np.zeros((n, dim))
    for start, stop, keys in attn_blocks:
        rows, m = stop - start, keys.size
        q_b = q[start:stop].reshape(rows, heads, dh).transpose(1, 0, 2)  # (heads, rows, dh)
        k_b = k[keys].reshape(m, heads, dh).transpose(1, 2, 0)  # (heads, dh, keys)
        v_b = v[keys].reshape(m, heads, dh).transpose(1, 0, 2)  # (heads, keys, dh)
        sc = (q_b @ k_b) * scale
        sc = np.where(keys[None, :] > np.arange(start, stop)[:, None], -np.inf, sc)
        sc -= sc.max(axis=-1, keepdims=True)
        e_sc = np.exp(sc)
        w = e_sc / e_sc.sum(axis=-1, keepdims=True)
        out[start:stop] = (w @ v_b).transpose(1, 0, 2).reshape(rows, dim)
    return out @ block.wo


def embed_sequence(seq: TokenSequence, params: DecoderParams) -> np.ndarray:
    """Vocab embeddings and adapter-projected injections, plus positions."""
    n = seq.n
    if n > params.max_len and params.positional_mode == "absolute":
        raise ValueError(f"sequence length {n} exceeds max_len {params.max_len}")
    ids = seq.ids
    if ids.max(initial=-1) >= len(params.vocab):
        raise ValueError("vocab error: token id out of range")
    x = np.empty((n, params.dim))
    id_rows = ids >= 0
    x[id_rows] = params.embed[ids[id_rows]]
    if (~id_rows).any():
        x[~id_rows] = seq.injected[~id_rows] @ params.adapter
    if params.positional_mode == "absolute":
        x = x + params.pos[:n]
    return x


def forward(seq: TokenSequence, mask: AttentionMaskMatrix, params: DecoderParams) -> np.ndarray:
    """Per-position logits under the given visibility mask."""
    if seq.n != mask.n:
        raise ValueError(f"shape error: sequence length {seq.n} != mask size {mask.n}")
    if seq.layout is None:
        raise ValueError("sequence must carry its layout")
    if not np.isfinite(seq.injected).all():
        raise ValueError("numeric error: non-finite injected values")
    x = embed_sequence(seq, params)
    attn_blocks = _segment_blocks(mask.bits, seq.layout)
    for block in params.blocks:
        x = x + _attention(_layer_norm(x, block.ln1_g, block.ln1_b), block, params.heads, attn_blocks)
        h = _layer_norm(x, block.ln2_g, block.ln2_b)
        x = x + _gelu(h @ block.w1) @ block.w2
    return _layer_norm(x, params.ln_f_g, params.ln_f_b) @ params.head


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
    """
    output_ids = output_ids or {}
    n = layout.n
    ids = np.full(n, params.pad_id, dtype=np.int64)
    injected = np.zeros((n, params.enc_dim))
    pos = 0
    text_ids = list(text_ids)
    for seg in layout.segments:
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
        pos += seg.length
    return TokenSequence(ids=ids, injected=injected, layout=layout)


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
    config: CascadeConfig | None = None,
    max_label_len: int = OUTPUT_SLOTS,
) -> DecodeResult:
    """Greedy-decode every object's label, one object after another.

    Each object gets ``max_label_len`` pre-allocated slots and stops at the
    end token or when they run out; then the next object starts.  Each step
    equals a teacher-forced ``forward`` over the decoded output (see the
    module docstring).
    """
    if config is None:
        config = CascadeConfig.full_cascade()
    if max_label_len < 1:
        raise ValueError(f"max_label_len must be >= 1, got {max_label_len}")
    grid = batch.image_tokens
    if grid.dim != params.enc_dim:
        raise ValueError("shape error: encoder dim does not match adapter input")
    mask_lens = [ts.count for ts in batch.mask_token_sets]
    layout = canonical_layout(grid.rows * grid.cols, len(list(text_ids)), mask_lens, max_label_len)
    seq = assemble_sequence(
        layout,
        params,
        image_values=grid.tokens(),
        mask_values={ts.mask_index: ts.tokens for ts in batch.mask_token_sets},
        text_ids=text_ids,
    )
    base = build_cascade_mask(layout, config)
    ids = seq.ids.copy()
    unfilled = np.isin(np.arange(layout.n), layout.positions(OUT))  # slots with no token yet
    steps, labels = [], []
    for i in range(layout.num_objects):
        lps, words = [], []
        for slot, row in zip(*_chunk_rows(layout, i)):
            logits = forward(seq.with_ids(ids), base.without(np.flatnonzero(unfilled)), params)[row]
            tok = int(np.argmax(logits))
            lps.append(float(log_softmax(logits)[tok]))
            ids[slot] = tok
            unfilled[slot] = False
            if tok == params.end_id:
                break
            words.append(params.vocab[tok])
        steps.append(tuple(lps))
        labels.append(" ".join(words))

    per_object = tuple(float(sum(s)) for s in steps)
    return DecodeResult(
        labels=tuple(labels),
        stepwise_logprobs=tuple(steps),
        per_object_logprob=per_object,
        total_logprob_joint=float(sum(per_object)),
    )


# ---------------------------------------------------------------------------
# Isolation and teacher forcing
# ---------------------------------------------------------------------------


def isolate_single_mask(
    seq: TokenSequence,
    layout: SequenceLayout,
    keep: int,
    *,
    pad_id: int = 0,
) -> tuple[TokenSequence, AttentionMaskMatrix]:
    """Pad out every other object's mask and output tokens and kill their
    rows and columns under the full cascade; positions (and hence position
    embeddings) are kept.

    ``pad_id`` defaults to 0, which is where make_vocab puts the pad token.
    """
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
    mask: AttentionMaskMatrix,
    params: DecoderParams,
) -> float:
    """Mean cross-entropy over output-chunk token positions.

    Targets are the filled tokens of each output chunk (trailing pad slots
    are ignored), each predicted from its ``_chunk_rows`` row.  Every
    chunk's filled part must end with the end token.
    """
    layout = seq.layout
    if layout is None:
        raise ValueError("sequence must carry its layout")
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
# u32 flags bit0 = absolute positions), then the ``_weight_layout`` tensors
# as little-endian float32, in order.  The vocabulary ships as a JSON array
# alongside.
# ---------------------------------------------------------------------------


def _tensor(params: DecoderParams, name: str) -> np.ndarray:
    """The tensor a ``_weight_layout`` name refers to."""
    if name.startswith("blocks."):
        _, i, field_name = name.split(".")
        return getattr(params.blocks[int(i)], field_name)
    return getattr(params, name)


def save_decoder_params(params: DecoderParams, blob_path, vocab_path) -> None:
    layout = _weight_layout(
        len(params.vocab), params.dim, params.layers, params.enc_dim, params.positional_mode, params.max_len
    )
    with open(blob_path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<HBB", params.dim, params.heads, params.layers))
        flags = 1 if params.positional_mode == "absolute" else 0
        fh.write(struct.pack("<IIII", len(params.vocab), params.max_len, params.enc_dim, flags))
        for name, _, _ in layout:
            fh.write(np.asarray(_tensor(params, name)).astype("<f4").tobytes())
    with open(vocab_path, "w", encoding="ascii") as fh:
        json.dump(list(params.vocab), fh)
        fh.write("\n")


def load_decoder_params(blob_path, vocab_path) -> DecoderParams:
    with open(vocab_path, "r", encoding="ascii") as fh:
        vocab = tuple(json.load(fh))
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
    positional_mode = "absolute" if flags & 1 else "none"
    layout = _weight_layout(vocab_size, dim, layers, enc_dim, positional_mode, max_len)
    sizes = [int(np.prod(shape)) for _, shape, _ in layout]
    if 4 * sum(sizes) != len(blob) - _HEADER_BYTES:
        raise ValueError(
            f"decoder blob size mismatch: header implies {4 * sum(sizes)} weight bytes, found {len(blob) - _HEADER_BYTES}"
        )
    data = np.frombuffer(blob, dtype="<f4", offset=_HEADER_BYTES).astype(np.float64)
    chunks = np.split(data, np.cumsum(sizes)[:-1])
    tensors = {name: chunk.reshape(shape) for (name, shape, _), chunk in zip(layout, chunks)}
    return DecoderParams._from_tensors(tensors, vocab=vocab, dim=dim, heads=heads, layers=layers,
                                       positional_mode=positional_mode, max_len=max_len, enc_dim=enc_dim)
