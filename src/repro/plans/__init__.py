"""Pattern plans: compile any motif into a G-Miner execution plan.

The package behind :func:`repro.mine`:

* :mod:`repro.plans.query` — the query vocabulary
  (:class:`PatternQuery`: extra edges, order constraints, attribute
  predicates, wildcard labels) and the named-motif registry;
* :mod:`repro.plans.compiler` — automorphism-based symmetry breaking,
  extension-order derivation, per-level intersection steps
  (:func:`compile_pattern` → :class:`ExecutionPlan`);
* :mod:`repro.plans.executor` — the generic plan-driven grower
  (:class:`PlanApp`): one :class:`PlanTask` per seed on the simulated
  task machinery, and one task-free root loop (``run_roots``) for the
  native engine and :func:`count_plan_sequential`;
* :mod:`repro.plans.oracle` — brute-force ground truth for
  differential checks;
* :mod:`repro.plans.builtins` — the six paper workloads as built-in
  plans (bound to the legacy growers, hence bit-identical);
* :mod:`repro.plans.api` — the :func:`mine` facade.
"""

from repro.plans.query import (
    MOTIFS,
    PatternQuery,
    WILDCARD,
    flatten_pattern,
    motif,
)
from repro.plans.compiler import (
    CompiledStep,
    ExecutionPlan,
    automorphisms,
    break_symmetry,
    compile_pattern,
)
from repro.plans.executor import (
    PlanApp,
    PlanTask,
    count_plan_sequential,
)
from repro.plans.oracle import count_embeddings_bruteforce
from repro.plans.builtins import BUILTIN_PLANS, BuiltinPlan, builtin_plan
from repro.plans.api import mine, resolve_pattern

__all__ = [
    "BUILTIN_PLANS",
    "BuiltinPlan",
    "CompiledStep",
    "ExecutionPlan",
    "MOTIFS",
    "PatternQuery",
    "PlanApp",
    "PlanTask",
    "WILDCARD",
    "automorphisms",
    "break_symmetry",
    "builtin_plan",
    "compile_pattern",
    "count_embeddings_bruteforce",
    "count_plan_sequential",
    "flatten_pattern",
    "mine",
    "motif",
    "resolve_pattern",
]
