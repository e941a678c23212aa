"""The paper's contribution: general transformations for tree traversals.

* :mod:`repro.core.ir` — the traversal mini-language (Fig. 1's abstract
  pattern as an AST with opaque, vectorized predicate/update callbacks).
* :mod:`repro.core.callset` — static call-set analysis over the reduced
  CFG; guided/unguided classification (Section 3.2.1).
* :mod:`repro.core.pseudotail` — pseudo-tail-recursion checking and the
  systematic normalization into pseudo-tail-recursive form (Section 3.2).
* :mod:`repro.core.autoropes` — the autoropes transformation
  (Section 3.2.2, Figures 6/7).
* :mod:`repro.core.lockstep` — lockstep traversal: mask channels, warp
  votes, dynamic single-call-set majority voting (Section 4).
* :mod:`repro.core.annotations` — programmer annotations (call-set
  semantic equivalence, Section 4.3).
* :mod:`repro.core.profiling` — run-time sampling to decide whether
  points are sorted enough for lockstep (Section 4.4).
* :mod:`repro.core.pipeline` — the end-to-end "compiler" driver
  (Section 5).
* :mod:`repro.core.compile` — lowers a transformed kernel to the linear
  op program the code generator consumes.
* :mod:`repro.core.passes` — the transformation-pass registry and every
  source-emitting backend: the generated step loops of
  ``engine="codegen"``, the per-point Python traversal, and the
  pseudocode pretty-printer for original and transformed kernels
  (``render_recursive``/``render_iterative``, the shapes of Figures
  4-8).
"""

from repro.core.ir import (
    ArgDecl,
    CondRef,
    for_each_child,
    UpdateRef,
    ChildRef,
    If,
    Recurse,
    Return,
    Seq,
    Update,
    TraversalSpec,
    EvalContext,
)
from repro.core.callset import CallSetAnalysis, analyze_call_sets
from repro.core.pseudotail import (
    NotPseudoTailRecursive,
    is_pseudo_tail_recursive,
    normalize_to_pseudo_tail,
)
from repro.core.autoropes import IterativeKernel, apply_autoropes
from repro.core.lockstep import LockstepKernel, apply_lockstep
from repro.core.annotations import Annotation
from repro.core.profiling import TraversalSimilarity, sample_similarity
from repro.core.identify import StructureError, StructureReport, identify_structure
from repro.core.pipeline import TransformPipeline, CompiledTraversal

__all__ = [
    "ArgDecl",
    "CondRef",
    "UpdateRef",
    "ChildRef",
    "If",
    "Recurse",
    "Return",
    "Seq",
    "Update",
    "for_each_child",
    "TraversalSpec",
    "EvalContext",
    "CallSetAnalysis",
    "analyze_call_sets",
    "NotPseudoTailRecursive",
    "is_pseudo_tail_recursive",
    "normalize_to_pseudo_tail",
    "IterativeKernel",
    "apply_autoropes",
    "LockstepKernel",
    "apply_lockstep",
    "Annotation",
    "TraversalSimilarity",
    "sample_similarity",
    "TransformPipeline",
    "CompiledTraversal",
    "StructureError",
    "StructureReport",
    "identify_structure",
]
