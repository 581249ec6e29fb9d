"""``wire-decoder``: every ``from_dict`` and ``from_state`` decodes
through :mod:`repro.wire`.

A hand-written decoder brings back its own key check and its own
coercions, which is how ``"false"`` once decoded as ``True`` and ``2.9``
as ``2``.  Every ``from_dict`` under ``src/repro`` must be a declaration
(``from_dict = wire.from_dict(...)``) or a classmethod that calls
:mod:`repro.wire` and none of the builtins ``int``, ``float``, ``bool``
or ``str``; so must every engine checkpoint's ``from_state`` (an
abstract declaration has no body to check).
"""

from __future__ import annotations

import ast

from repro.staticcheck.loader import Codebase
from repro.staticcheck.model import Finding
from repro.staticcheck.registry import register_pass
from repro.staticcheck.walker import dotted_name

__all__ = ["WIRE_MODULE", "COERCIONS", "DECODERS", "check_wire_decoder"]

#: The module every ``from_dict`` must decode through.
WIRE_MODULE = "repro.wire"

#: Builtins that coerce a payload field by hand.
COERCIONS = ("int", "float", "bool", "str")

#: The decoding classmethods the rule covers.
DECODERS = ("from_dict", "from_state")


def _is_abstract(method: ast.FunctionDef) -> bool:
    return any(
        (dotted_name(decorator) or "").endswith("abstractmethod")
        for decorator in method.decorator_list
    )


def _resolves_to_wire(call: ast.Call, aliases: "dict[str, str]") -> bool:
    head, _, rest = (dotted_name(call.func) or "").partition(".")
    return ".".join(filter(None, (aliases.get(head, head), rest))).startswith(WIRE_MODULE + ".")


@register_pass(
    "wire-decoder",
    "every from_dict and from_state decodes through repro.wire, with no hand-written coercion",
)
def check_wire_decoder(codebase: Codebase) -> "list[Finding]":
    findings: "list[Finding]" = []
    for info in codebase.iter_modules("repro"):
        for cls in (node for node in ast.walk(info.tree) if isinstance(node, ast.ClassDef)):
            for method in cls.body:
                if isinstance(method, ast.Assign):
                    names = [dotted_name(target) for target in method.targets]
                    name = next((name for name in names if name in DECODERS), None)
                    calls = [method.value] if isinstance(method.value, ast.Call) else []
                elif isinstance(method, ast.FunctionDef) and not _is_abstract(method):
                    name = method.name if method.name in DECODERS else None
                    calls = [node for node in ast.walk(method) if isinstance(node, ast.Call)]
                else:
                    continue
                if name is None:
                    continue
                qualname = f"{info.name}.{cls.name}.{name}"
                if not any(_resolves_to_wire(call, info.aliases) for call in calls):
                    findings.append(Finding(
                        rule="wire-decoder", file=info.relpath, line=method.lineno,
                        message=f"{qualname} does not decode through {WIRE_MODULE}",
                        detail=f"{qualname}:no-wire",
                        hint="declare a dataclass of the fields and decode it with wire.decode",
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
