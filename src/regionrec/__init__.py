"""Word-free region recognition core.

A numpy library implementing region tokenization over binary masks, cascade
attention-mask construction for decoupled multi-instance decoding, a toy
transformer decoder with exact masked-key exclusion, open-vocabulary label
metrics, a dataset filter pipeline, and an analytic cost benchmark.  Import
the submodules by name (``regionrec.attnmask``, ``regionrec.decoder``, ...).
"""

__version__ = "0.1.0"
