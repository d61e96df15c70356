"""okc: a compiler-style toolkit for labeled problem-solving ontologies.

Models are written in a line-oriented text language (`.oks` files),
validated against a built-in upper ontology plus labeling rules, and
compiled into three expertise-model documents (domain, inference, task).
"""

from .bundle import CompileRefusedError, ModelBundle, compile_bundle, emit_bundle
from .checks import REGISTRY, validate
from .frontend import parse, render
from .kernel import kernel_ontology, merge_with_kernel
from .model import (
    Diagnostic,
    Ontology,
    Severity,
    SourceSpan,
    SourceText,
    load,
)
from .reasoner import (
    FactBase,
    SubsumptionClosure,
    compute_closure,
    explain_instance,
    saturate,
)

__version__ = "0.1.0"

__all__ = [
    "CompileRefusedError",
    "Diagnostic",
    "FactBase",
    "ModelBundle",
    "Ontology",
    "REGISTRY",
    "Severity",
    "SourceSpan",
    "SourceText",
    "SubsumptionClosure",
    "compile_bundle",
    "compute_closure",
    "emit_bundle",
    "explain_instance",
    "kernel_ontology",
    "load",
    "merge_with_kernel",
    "parse",
    "render",
    "saturate",
    "validate",
    "__version__",
]
