"""The repo-specific checker passes.

Importing this package registers every pass with
:mod:`repro.staticcheck.registry`; the CLI and tests import it for that
side effect.  One module per rule:

========================  ====================================================
``fingerprint-purity``    functions reachable from the fingerprint entry
                          points must be pure (no env/time/RNG reads)
``async-blocking``        ``repro.serve`` coroutines must never call known
                          blocking functions on the event loop
``lock-discipline``       attributes of lock-holding classes must not be
                          written both inside and outside the lock
``env-registry``          every environment read uses a documented
                          ``REPRO_*`` name with an extractable default
``api-drift``             ``__all__`` lists, the lazy-submodule map and the
                          ``repro.api`` façade stay mutually consistent
``no-silent-swallow``     broad ``except`` handlers must re-raise, return,
                          use the bound exception, or log — never swallow
``engine-registry``       every registered optimization engine is imported
                          by the engines package, exported, and documented
``wire-decoder``          every ``from_dict`` decodes through ``repro.wire``
                          and coerces no field by hand
========================  ====================================================
"""

from repro.staticcheck.passes import (  # noqa: F401  (imported for registration)
    blocking,
    engines,
    envvars,
    exports,
    locks,
    purity,
    swallow,
    wire,
)

__all__ = ["purity", "blocking", "locks", "envvars", "exports", "swallow", "engines", "wire"]
