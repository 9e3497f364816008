"""Word-free region recognition core.

A numpy library implementing region tokenization over binary masks, cascade
attention-mask construction for decoupled multi-instance decoding, a toy
transformer decoder with exact masked-key exclusion, open-vocabulary label
metrics, a dataset filter pipeline, and an analytic cost benchmark.
"""

from .attnmask import (
    AttentionMaskMatrix,
    CascadeConfig,
    Segment,
    SequenceLayout,
    build_cascade_mask,
    canonical_layout,
    dump_attention_mask,
    parse_layout_header,
)
from .decoder import (
    DecodeResult,
    DecoderParams,
    TokenSequence,
    assemble_sequence,
    decode_objects,
    forward,
    isolate_single_mask,
    load_decoder_params,
    make_vocab,
    save_decoder_params,
    teacher_forced_loss,
)
from .encoder import EncoderParams, FeatureGrid, encode
from .harness import (
    PipelineReport,
    ScalingReport,
    ScriptedOracle,
    decoder_flops,
    encoder_flops,
    run_filter_pipeline,
    run_scaling_bench,
    synthesize_mask_corpus,
)
from .maskio import (
    BinaryMask,
    MaskRecord,
    RasterImage,
    mask_from_rle,
    mask_to_rle,
    read_pgm,
    read_records,
    write_pgm,
    write_records,
)
from .metrics import (
    EvalReport,
    TrigramHashProvider,
    evaluate,
    open_vocab_classify,
    semantic_iou,
    semantic_similarity,
)
from .prompt import (
    MaskTokenSet,
    PromptBatch,
    build_prompt_batch,
    mask2token,
)
from .region import (
    BBox,
    CropWindow,
    GridMask,
    context_crop_window,
    downsample_to_grid,
    extract_and_resize,
    resize_image,
    tight_bbox,
)

__version__ = "0.1.0"
