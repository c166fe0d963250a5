"""FOOD: bidirectional transformation between functional and object-oriented decomposition."""

__version__ = "0.1.0"

from .context import GlobalCtx, preprocess, restrict, translate_ctx
from .diagnostics import ContextError, Diagnostic, FoodError, ParseError, TransformError
from .interp import (
    BoolV,
    Done,
    FuelExhausted,
    IntV,
    ObjV,
    Stuck,
    csm_body,
    dtr_body,
    eval_program,
    step,
)
from .parser import parse
from .pretty import pretty, pretty_expr
from .syntax import Program, canonicalize, desugar
from .transform import TransformResult, transform, transform_expr, typecheck
from .wellformed import check

__all__ = [
    "BoolV",
    "ContextError",
    "Diagnostic",
    "Done",
    "FoodError",
    "FuelExhausted",
    "GlobalCtx",
    "IntV",
    "ObjV",
    "ParseError",
    "Program",
    "Stuck",
    "TransformError",
    "TransformResult",
    "canonicalize",
    "check",
    "csm_body",
    "desugar",
    "dtr_body",
    "eval_program",
    "parse",
    "preprocess",
    "pretty",
    "pretty_expr",
    "restrict",
    "step",
    "transform",
    "transform_expr",
    "translate_ctx",
    "typecheck",
]
