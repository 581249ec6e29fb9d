"""``wire-decoder``: every ``from_dict`` decodes through :mod:`repro.wire`.

A hand-written ``from_dict`` brings back its own key check and its own
coercions, which is how ``"false"`` once decoded as ``True`` and ``2.9``
as ``2``.  Every ``from_dict`` under ``src/repro`` must be a declaration
(``from_dict = wire.from_dict(...)``) or a classmethod that calls
:mod:`repro.wire` and none of the builtins ``int``, ``float``, ``bool``
or ``str``.
"""

from __future__ import annotations

import ast

from repro.staticcheck.loader import Codebase
from repro.staticcheck.model import Finding
from repro.staticcheck.registry import register_pass
from repro.staticcheck.walker import dotted_name

__all__ = ["WIRE_MODULE", "COERCIONS", "check_wire_decoder"]

#: The module every ``from_dict`` must decode through.
WIRE_MODULE = "repro.wire"

#: Builtins that coerce a payload field by hand.
COERCIONS = ("int", "float", "bool", "str")


def _resolves_to_wire(call: ast.Call, aliases: "dict[str, str]") -> bool:
    head, _, rest = (dotted_name(call.func) or "").partition(".")
    return ".".join(filter(None, (aliases.get(head, head), rest))).startswith(WIRE_MODULE + ".")


@register_pass(
    "wire-decoder",
    "every from_dict decodes through repro.wire, with no hand-written coercion",
)
def check_wire_decoder(codebase: Codebase) -> "list[Finding]":
    findings: "list[Finding]" = []
    for info in codebase.iter_modules("repro"):
        for cls in (node for node in ast.walk(info.tree) if isinstance(node, ast.ClassDef)):
            for method in cls.body:
                if isinstance(method, ast.Assign):
                    if "from_dict" not in (dotted_name(target) for target in method.targets):
                        continue
                    calls = [method.value] if isinstance(method.value, ast.Call) else []
                elif isinstance(method, ast.FunctionDef) and method.name == "from_dict":
                    calls = [node for node in ast.walk(method) if isinstance(node, ast.Call)]
                else:
                    continue
                qualname = f"{info.name}.{cls.name}.from_dict"
                if not any(_resolves_to_wire(call, info.aliases) for call in calls):
                    findings.append(Finding(
                        rule="wire-decoder", file=info.relpath, line=method.lineno,
                        message=f"{qualname} does not decode through {WIRE_MODULE}",
                        detail=f"{qualname}:no-wire",
                        hint="declare from_dict = wire.from_dict(path, error)",
                    ))
                for call in calls:
                    if isinstance(call.func, ast.Name) and call.func.id in COERCIONS:
                        findings.append(Finding(
                            rule="wire-decoder", file=info.relpath, line=call.lineno,
                            message=f"{qualname} coerces a value with {call.func.id}()",
                            detail=f"{qualname}:{call.func.id}",
                            hint=f"annotate the field and let {WIRE_MODULE} check it",
                        ))
    return findings
