"""Pliable index coding toolkit.

Complete size-profile instances, linear broadcast codes over prime fields,
decodability verification, converse bounds with closed forms, topology
hypergraph machinery including the circular-arc two-transmission scheme,
and the combinatorial oracles behind the converse arguments.

Import each name from its module (`picod.instance`, `picod.coding`,
`picod.verifier`, `picod.bounds`, `picod.hypergraph`, `picod.oracles`,
`picod.errors`, `picod.cli`); the package root holds only `__version__`.
"""

__version__ = "0.1.0"
