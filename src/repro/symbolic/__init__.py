"""Application-independent symbolic bitvector expressions.

This package is the representation Code Phage uses to carry a check out of the
donor ("check excision") and into the recipient ("check translation"):
expression trees whose leaves are input fields and constants and whose
interior nodes are fixed-width bitvector operations.
"""

from . import builder
from .evaluate import EvaluationError, evaluate, evaluate_tree, to_signed, to_unsigned
from .expr import (
    Binary,
    Concat,
    Constant,
    Expr,
    ExprError,
    Extend,
    Extract,
    InputField,
    Ite,
    Kind,
    NEGATED_COMPARISON,
    SWAPPED_COMPARISON,
    Unary,
    clear_intern_table,
    intern_table_size,
    structurally_equal,
)
from .metrics import (
    CheckSize,
    arithmetic_count,
    comparison_count,
    field_reference_count,
    leaf_count,
    operation_count,
    size_reduction,
)
from .printer import c_type_for_width, to_c_string, to_paper_string
from .simplify import (
    DEFAULT_OPTIONS,
    SimplifyOptions,
    clear_simplify_cache,
    reset_simplify_cache_stats,
    simplify,
    simplify_cache_stats,
    simplify_reference,
)

__all__ = [
    "Binary",
    "Concat",
    "Constant",
    "CheckSize",
    "DEFAULT_OPTIONS",
    "EvaluationError",
    "Expr",
    "ExprError",
    "Extend",
    "Extract",
    "InputField",
    "Ite",
    "Kind",
    "NEGATED_COMPARISON",
    "SWAPPED_COMPARISON",
    "SimplifyOptions",
    "Unary",
    "arithmetic_count",
    "builder",
    "c_type_for_width",
    "clear_intern_table",
    "clear_simplify_cache",
    "comparison_count",
    "evaluate",
    "evaluate_tree",
    "field_reference_count",
    "intern_table_size",
    "leaf_count",
    "operation_count",
    "reset_simplify_cache_stats",
    "simplify",
    "simplify_cache_stats",
    "simplify_reference",
    "size_reduction",
    "structurally_equal",
    "to_c_string",
    "to_paper_string",
    "to_signed",
    "to_unsigned",
]
