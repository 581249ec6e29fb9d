"""Single source of truth for the package version.

Kept in its own module (instead of ``repro/__init__``) so packaging tools
can read it via ``[tool.setuptools.dynamic]`` without importing the full
package, and so :mod:`repro.cache` can fingerprint the code version without
creating an import cycle.
"""

__version__ = "1.2.0"
