"""Verification-guided reasoning over unary logical theories.

Parse a theory, compute its symbolic closure, sample short structured
sketches from a generator under an adaptive token budget, verify every
claim against the closure, and select the answer that survives
verification. An evaluation harness compares the pipeline with plain
prompting baselines on accuracy, certification rate, token spend, and
latency.

The package root exports only load_dataset; everything else is imported
from the module that defines it. Every value type is a typing.NamedTuple,
so no module loads the dataclasses machinery.
"""

from .dataset import load_dataset

__version__ = "0.1.0"
