"""Joint package-design search: rank cheaply, materialize the frontier.

The sweep engine (:mod:`repro.sweep`) prices the designs a user spells
out; this package *searches* them.  A :class:`DesignSpace` declares a
joint (quadrant composition x NoP topology x frequency/tile/dataflow x
DRAM) space with the sweep's own axis grammar, and a
:class:`DesignSearch` ranks every candidate with a closed-form proxy
over its memoized layer costs, prunes against latency/energy targets, keeps the
Pareto frontier, and materializes *only* the frontier into full sweep
rows — PR 1's rank-then-materialize trunk-DSE idiom generalized from
one quadrant to whole packages.
"""

# Eager, unlike the other packages: ``search`` imports ``pareto`` and
# ``space``, so every name here loads the same three modules, and
# perfbench's import probe is meant to time them in ``setup_s``.
from .pareto import dominated_indices, dominates, pareto_indices
from .search import (
    DesignCandidate,
    DesignSearch,
    DesignSearchResult,
    DesignTargets,
    proxy_objectives,
)
from .space import DesignSpace, axis_token

__all__ = [
    "DesignCandidate",
    "DesignSearch",
    "DesignSearchResult",
    "DesignSpace",
    "DesignTargets",
    "axis_token",
    "dominated_indices",
    "dominates",
    "pareto_indices",
    "proxy_objectives",
]
