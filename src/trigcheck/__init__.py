"""Verification-oriented trigonometry toolkit.

Exact rational series algorithms for pi, cos, and sin serve as oracles; a
grid fix-point datatype with Gaussian rounding runs the same algorithms as
the subject under test; runtime checks enforce the loop invariants and error
bounds; a strict binary32 module reproduces how the naive float loop
diverges for moderate arguments.
"""

from . import errors
from .exact import parse_rational, rat_str, to_decimal
from .fixpoint import FixFormat, FixNum
from .fixtrig import (
    FixAlgoResult,
    PairedTrace,
    TraceRecord,
    cos_fixpoint,
    cos_term_count,
    error_bound,
    paired_trace_cos,
    paired_trace_sin,
    sin_fixpoint,
    sin_term_count,
)
from .floatrepro import cos_code_in_c, f32, scan_table
from .oracle import (
    AlgoResult,
    cos_taylor,
    cos_unbounded,
    cos_zerone,
    pi_leibniz,
    sin_taylor,
    sin_unbounded,
    sin_zerone,
)

__version__ = "0.1.0"

__all__ = [
    "AlgoResult",
    "FixAlgoResult",
    "FixFormat",
    "FixNum",
    "PairedTrace",
    "TraceRecord",
    "cos_code_in_c",
    "cos_fixpoint",
    "cos_taylor",
    "cos_term_count",
    "cos_unbounded",
    "cos_zerone",
    "error_bound",
    "errors",
    "f32",
    "paired_trace_cos",
    "paired_trace_sin",
    "parse_rational",
    "pi_leibniz",
    "rat_str",
    "scan_table",
    "sin_fixpoint",
    "sin_taylor",
    "sin_term_count",
    "sin_unbounded",
    "sin_zerone",
    "to_decimal",
]
