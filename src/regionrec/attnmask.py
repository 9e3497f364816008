"""Sequence layout modelling and cascade attention-mask construction.

A layout is an ordered list of typed segments over one decoding sequence:
one image segment, an optional text segment, per-object mask segments,
separators, and per-object output chunks.  The mask is the causal lower
triangle minus what three decoupling rules remove:

1. mask segments do not see other mask segments;
2. output chunks do not see earlier output chunks;
3. with both decouplings active (the full cascade), an output chunk sees
   only the image, the text, its own mask segment, and its own prior
   tokens — nothing else, separators included.

Separator rows attend to nothing; their attention output is defined as the
zero vector downstream.  The rules are one predicate over the (kind,
instance) codes of a query segment and a key segment, which stay private to
this module.  A mask is the predicate's table over the layout's segments
plus a set of dead positions.  ``AttentionMask.blocks`` is the one place the
table becomes key sets: the decoder's forward and cached decode attend over
its blocks, and the dense n x n ``bits``, built only when asked for, is
drawn from them.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace
from functools import cached_property
from itertools import accumulate

import numpy as np

IMAGE = "image"
TEXT = "text"
SEP = "sep"
MASK = "mask"
OUT = "out"

_KIND_CODE = {IMAGE: 0, TEXT: 1, SEP: 2, MASK: 3, OUT: 4}


@dataclass(frozen=True)
class Segment:
    kind: str
    length: int
    index: int | None = None

    def __post_init__(self):
        if self.kind not in _KIND_CODE:
            raise ValueError(f"unknown segment kind {self.kind!r}")
        if self.kind in (MASK, OUT):
            if self.index is None or self.index < 0:
                raise ValueError(f"{self.kind} segment needs a non-negative index")
            if self.length < (1 if self.kind == MASK else 0):
                raise ValueError(f"{self.kind} segment length too small")
        else:
            if self.index is not None:
                raise ValueError(f"{self.kind} segment must not carry an index")
            if self.length < 1:
                raise ValueError(f"{self.kind} segment length must be >= 1")

    def label(self) -> str:
        if self.kind in (MASK, OUT):
            return f"{self.kind}{self.index}"
        return self.kind


@dataclass(frozen=True)
class SequenceLayout:
    """Typed segmentation of one token sequence."""

    segments: tuple[Segment, ...]

    def __post_init__(self):
        segments = tuple(self.segments)
        object.__setattr__(self, "segments", segments)
        if sum(1 for s in segments if s.kind == IMAGE) != 1:
            raise ValueError("layout needs exactly one image segment")
        if sum(1 for s in segments if s.kind == TEXT) > 1:
            raise ValueError("layout allows at most one text segment")
        mask_ids = [s.index for s in segments if s.kind == MASK]
        out_ids = [s.index for s in segments if s.kind == OUT]
        if mask_ids != sorted(set(mask_ids)) or mask_ids != list(range(len(mask_ids))):
            raise ValueError("mask segments must appear once each, in order 0..K-1")
        if out_ids != list(range(len(out_ids))):
            raise ValueError("output chunks must appear once each, in order 0..K-1")
        if len(mask_ids) != len(out_ids):
            raise ValueError("mask and output segment counts differ")
        first_out = next((i for i, s in enumerate(segments) if s.kind == OUT), len(segments))
        if any(s.kind == MASK for s in segments[first_out:]):
            raise ValueError("all mask segments must precede all output chunks")

    @property
    def n(self) -> int:
        return sum(s.length for s in self.segments)  # a Python int: it never wraps

    @property
    def num_objects(self) -> int:
        return sum(1 for s in self.segments if s.kind == MASK)

    @cached_property
    def starts(self) -> tuple[int, ...]:
        """Each segment's first position."""
        return tuple(accumulate((s.length for s in self.segments[:-1]), initial=0))

    @cached_property
    def segment_of(self) -> np.ndarray:
        """The segment of each position, read-only."""
        out = np.repeat(np.arange(len(self.segments)), [s.length for s in self.segments])
        out.flags.writeable = False
        return out

    def positions(self, kind: str, index: int | None = None) -> np.ndarray:
        """Positions of all tokens of a kind (optionally one instance)."""
        hit = [s.kind == kind and (index is None or s.index == index) for s in self.segments]
        return np.flatnonzero(np.asarray(hit, dtype=bool)[self.segment_of])

    def header(self) -> str:
        return " ".join(f"{s.label()}:{s.length}" for s in self.segments)


def parse_layout_header(header: str) -> SequenceLayout:
    """Parse the dump-format header, e.g. ``image:2 text:1 mask0:2 sep:1 out0:1``."""
    segments = []
    for token in header.split():
        m = re.fullmatch(r"(image|text|sep|mask(\d+)|out(\d+)):(\d+)", token)
        if not m:
            raise ValueError(f"bad layout token {token!r}")
        length = int(m.group(4))
        if m.group(2) is not None:
            segments.append(Segment(MASK, length, int(m.group(2))))
        elif m.group(3) is not None:
            segments.append(Segment(OUT, length, int(m.group(3))))
        else:
            segments.append(Segment(m.group(1), length))
    return SequenceLayout(tuple(segments))


def canonical_layout(image_len: int, text_len: int, mask_lens: list[int], output_slots: int) -> SequenceLayout:
    """The decode-time layout: image, text (left out when ``text_len`` is 0),
    each mask followed by one separator, then one chunk of ``output_slots``
    slots per object."""
    if text_len < 0:
        raise ValueError(f"text length must be >= 0, got {text_len}")
    segments = [Segment(IMAGE, image_len)]
    if text_len > 0:
        segments.append(Segment(TEXT, text_len))
    for i, m in enumerate(mask_lens):
        segments.append(Segment(MASK, m, i))
        segments.append(Segment(SEP, 1))
    segments.extend(Segment(OUT, output_slots, i) for i in range(len(mask_lens)))
    return SequenceLayout(tuple(segments))


@dataclass(frozen=True)
class CascadeConfig:
    """Which decoupling rules are active.

    (True, True) is the full cascade; (True, False) decouples only the mask
    segments; (False, True) only the output chunks; (False, False) is the
    plain causal baseline.
    """

    region_decouple: bool = True
    output_decouple: bool = True

    @classmethod
    def full_cascade(cls) -> "CascadeConfig":
        return cls(True, True)

    @classmethod
    def region_variant(cls) -> "CascadeConfig":
        return cls(True, False)

    @classmethod
    def output_variant(cls) -> "CascadeConfig":
        return cls(False, True)

    @classmethod
    def plain_causal(cls) -> "CascadeConfig":
        return cls(False, False)


def _visible(kq, iq, kk, ik, config: CascadeConfig) -> np.ndarray:
    """May a query of segment kind ``kq`` and instance ``iq`` see an earlier
    key of kind ``kk`` and instance ``ik``?

    Arguments are broadcastable arrays of kind codes and instance indices
    (-1 for kinds without one).  Every rule depends on (kind, instance) only,
    so visibility is uniform inside each (query segment, key segment) pair.
    """
    vis = kq != _KIND_CODE[SEP]
    if config.region_decouple:
        vis = vis & ~((kq == _KIND_CODE[MASK]) & (kk == _KIND_CODE[MASK]) & (ik != iq))
    if config.output_decouple:
        vis = vis & ~((kq == _KIND_CODE[OUT]) & (kk == _KIND_CODE[OUT]) & (ik < iq))
    if config.region_decouple and config.output_decouple:
        own = ((kk == _KIND_CODE[MASK]) | (kk == _KIND_CODE[OUT])) & (ik == iq)
        shared = (kk == _KIND_CODE[IMAGE]) | (kk == _KIND_CODE[TEXT])
        vis = vis & ((kq != _KIND_CODE[OUT]) | shared | own)
    return vis


@dataclass(frozen=True, eq=False)
class AttentionMask:
    """A cascade mask of ``layout`` with the ``dead`` positions removed:
    they neither attend nor are attended.

    ``table[s, t]`` says whether a query in segment s may see an earlier key
    in segment t.  ``build_cascade_mask`` computes it once from a config;
    ``without`` carries it along and only grows the dead set.
    """

    layout: SequenceLayout
    table: np.ndarray = field(repr=False)
    dead: np.ndarray = field(repr=False)

    def without(self, positions) -> "AttentionMask":
        """This mask with ``positions`` dead as well."""
        dead = self.dead.copy()
        dead[positions] = True
        return replace(self, dead=dead)

    def blocks(self) -> list[tuple[int, int, np.ndarray]]:
        """Query rows as ``(start, stop, keys)`` attention blocks, one per
        maximal run of live rows inside one segment.  ``keys`` are the live
        positions before ``stop`` in the segments the block's table row marks
        visible; row r sees those <= r.  Separator and dead rows see nothing
        and lie in no block."""
        seg_of = self.layout.segment_of
        seen = self.table[:, seg_of] & ~self.dead  # seen[s, p]: segment s may see live position p
        live = seen[seg_of, np.arange(seg_of.size)]  # a row sees itself unless separator or dead
        same = seg_of[1:] == seg_of[:-1]
        first, last = live.copy(), live.copy()
        first[1:] &= ~(live[:-1] & same)
        last[:-1] &= ~(live[1:] & same)
        return [(int(a), int(b) + 1, np.flatnonzero(seen[seg_of[a], : b + 1]))
                for a, b in zip(np.flatnonzero(first), np.flatnonzero(last))]

    @cached_property
    def bits(self) -> np.ndarray:
        """n x n, ``bits[q, k]`` meaning query q may attend key k: each
        block's rows over its keys, cut to the causal lower triangle."""
        n = self.layout.n
        bits = np.zeros((n, n), dtype=bool)
        for start, stop, keys in self.blocks():
            bits[start:stop, keys] = keys <= np.arange(start, stop)[:, None]
        bits.flags.writeable = False
        return bits

    def visible_pairs(self) -> int:
        return int(self.bits.sum())


def build_cascade_mask(layout: SequenceLayout, config: CascadeConfig) -> AttentionMask:
    """The mask of a layout under a config, with no dead position:
    ``_visible`` fills the S x S table over the layout's S segments."""
    segments = layout.segments
    kinds = np.array([_KIND_CODE[seg.kind] for seg in segments])
    insts = np.array([-1 if seg.index is None else seg.index for seg in segments])
    table = _visible(kinds[:, None], insts[:, None], kinds[None, :], insts[None, :], config)
    # the plain causal table depends on the query only and comes back S x 1
    table = np.broadcast_to(table, (len(segments), len(segments)))
    return AttentionMask(layout, table, np.zeros(layout.n, dtype=bool))


def dump_attention_mask(mask: AttentionMask) -> str:
    """Bit-exact ASCII dump: layout header line, then one 0/1 row per query."""
    chars = np.where(mask.bits, ord("1"), ord("0")).astype(np.uint8)
    return "\n".join([mask.layout.header()] + [row.tobytes().decode("ascii") for row in chars])
