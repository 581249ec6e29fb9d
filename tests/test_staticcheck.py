"""Tests for ``repro.staticcheck`` (mirror of CI's staticcheck job).

Each pass is proven by a seeded-violation fixture: a miniature repo under
``tmp_path`` mirroring the real layout (``src/repro/...``) with exactly
one planted violation, asserted to produce exactly one finding with the
right rule id and line.  A clean-repo run then pins the working tree to
the checked-in baseline, so the gate's green on this repo is itself under
test.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.staticcheck import (
    SCHEMA_VERSION,
    BaselineError,
    load_baseline,
    load_codebase,
    run_staticcheck,
)
from repro.staticcheck.registry import run_passes
import repro.staticcheck.passes  # noqa: F401  (registers the passes)

REPO_ROOT = Path(__file__).resolve().parent.parent


def _write(root: Path, relpath: str, text: str) -> Path:
    path = root / relpath
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(text), encoding="utf-8")
    return path


def _run_rule(root: Path, rule: str):
    _, findings = run_passes(load_codebase(root), rules=[rule])
    return findings


class TestPurityPass:
    def test_impure_call_in_reachable_helper(self, tmp_path):
        _write(
            tmp_path,
            "src/repro/cache/fingerprint.py",
            """\
            from repro.util.hashing import digest_payload


            def experiment_fingerprint(config):
                return digest_payload(config)
            """,
        )
        _write(
            tmp_path,
            "src/repro/util/hashing.py",
            """\
            import os


            def digest_payload(config):
                salt = os.environ.get("REPRO_SALT", "")
                return (config, salt)
            """,
        )
        findings = _run_rule(tmp_path, "fingerprint-purity")
        assert len(findings) == 1
        (finding,) = findings
        assert finding.rule == "fingerprint-purity"
        assert finding.file == "src/repro/util/hashing.py"
        assert finding.line == 5
        assert finding.detail == "repro.util.hashing.digest_payload:os.environ.get"

    @pytest.mark.parametrize(
        "spelling, call, detail",
        [
            ("from repro import env", 'env.read("REPRO_SALT")', "repro.env.read"),
            ("from repro.env import read", 'read("REPRO_SALT")', "repro.env.read"),
            ("import repro.env as knobs", 'knobs.KNOBS["REPRO_SALT"].default', None),
        ],
    )
    def test_env_reader_call_is_impure(self, tmp_path, spelling, call, detail):
        """``repro.env`` is the one environment reader, so a call into it on
        a fingerprint path is as impure as ``os.environ`` (reading the
        declared table itself is not a call, and stays pure)."""
        _write(
            tmp_path,
            "src/repro/cache/fingerprint.py",
            f"""\
            {spelling}


            def experiment_fingerprint(config):
                return (config, {call})
            """,
        )
        findings = _run_rule(tmp_path, "fingerprint-purity")
        if detail is None:
            assert findings == []
            return
        assert [(f.line, f.detail) for f in findings] == [
            (5, f"repro.cache.fingerprint.experiment_fingerprint:{detail}")
        ]

    def test_aliased_numpy_random_detected(self, tmp_path):
        _write(
            tmp_path,
            "src/repro/cache/fingerprint.py",
            """\
            import numpy as np


            def experiment_fingerprint(config):
                jitter = np.random.random()
                return (config, jitter)
            """,
        )
        findings = _run_rule(tmp_path, "fingerprint-purity")
        assert len(findings) == 1
        assert findings[0].line == 5
        assert "numpy.random" in findings[0].detail

    def test_rebound_global_read_flagged(self, tmp_path):
        _write(
            tmp_path,
            "src/repro/cache/fingerprint.py",
            """\
            _MODE = "strict"


            def set_mode(mode):
                global _MODE
                _MODE = mode


            def experiment_fingerprint(config):
                return (_MODE, config)
            """,
        )
        findings = _run_rule(tmp_path, "fingerprint-purity")
        assert len(findings) == 1
        (finding,) = findings
        assert finding.line == 10
        assert finding.detail.endswith("experiment_fingerprint:global:_MODE")

    def test_pure_fixture_is_clean(self, tmp_path):
        _write(
            tmp_path,
            "src/repro/cache/fingerprint.py",
            """\
            import hashlib
            import json


            def experiment_fingerprint(config):
                payload = json.dumps(config, sort_keys=True)
                return hashlib.sha256(payload.encode()).hexdigest()
            """,
        )
        assert _run_rule(tmp_path, "fingerprint-purity") == []


class TestBlockingPass:
    def test_direct_blocking_call_flagged(self, tmp_path):
        _write(
            tmp_path,
            "src/repro/serve/handler.py",
            """\
            import time


            async def handle(request):
                time.sleep(0.1)
                return request
            """,
        )
        findings = _run_rule(tmp_path, "async-blocking")
        assert len(findings) == 1
        (finding,) = findings
        assert finding.rule == "async-blocking"
        assert finding.file == "src/repro/serve/handler.py"
        assert finding.line == 5
        assert finding.detail == "handle:time.sleep"

    def test_inline_import_flagged(self, tmp_path):
        _write(
            tmp_path,
            "src/repro/serve/handler.py",
            """\
            async def handle(request):
                from repro.cache.fingerprint import experiment_fingerprint

                return experiment_fingerprint(request)
            """,
        )
        findings = _run_rule(tmp_path, "async-blocking")
        assert len(findings) == 1
        assert findings[0].line == 2
        assert findings[0].detail == "handle:import:experiment_fingerprint"

    def test_executor_handoff_is_exempt(self, tmp_path):
        _write(
            tmp_path,
            "src/repro/serve/handler.py",
            """\
            import asyncio
            import time


            async def handle(loop, request):
                await loop.run_in_executor(None, time.sleep, 0.1)
                return await asyncio.to_thread(len, request)
            """,
        )
        assert _run_rule(tmp_path, "async-blocking") == []

    def test_default_cache_accessor_flagged(self, tmp_path):
        _write(
            tmp_path,
            "src/repro/serve/handler.py",
            """\
            from repro.cache import store
            from repro.cache.store import resolve_cache


            async def handle(key, cache):
                tier = resolve_cache(cache)
                return tier.get(key) or store.get_default_activity_cache()
            """,
        )
        findings = _run_rule(tmp_path, "async-blocking")
        assert [(f.line, f.detail) for f in findings] == [
            (6, "handle:repro.cache.store.resolve_cache"),
            (7, "handle:repro.cache.store.get_default_activity_cache"),
        ]

    def test_peeking_the_default_caches_is_clean(self, tmp_path):
        _write(
            tmp_path,
            "src/repro/serve/handler.py",
            """\
            from repro.cache.store import get_default_cache, peek_default_caches


            async def handle(loop, key):
                tier = peek_default_caches().get("experiment")
                if tier is None:
                    tier = await loop.run_in_executor(None, get_default_cache)
                return tier.get_memory(key)
            """,
        )
        assert _run_rule(tmp_path, "async-blocking") == []

    def test_sync_code_outside_serve_ignored(self, tmp_path):
        _write(
            tmp_path,
            "src/repro/experiments/runner.py",
            """\
            import time


            async def helper():
                time.sleep(1.0)
            """,
        )
        assert _run_rule(tmp_path, "async-blocking") == []


class TestLocksPass:
    def test_mixed_locked_unlocked_write_flagged(self, tmp_path):
        _write(
            tmp_path,
            "src/repro/cache/store.py",
            """\
            import threading


            class Cache:
                def __init__(self):
                    self._lock = threading.RLock()
                    self._entries = {}

                def put(self, key, value):
                    with self._lock:
                        self._entries = {**self._entries, key: value}

                def clear(self):
                    self._entries = {}
            """,
        )
        findings = _run_rule(tmp_path, "lock-discipline")
        assert len(findings) == 1
        (finding,) = findings
        assert finding.rule == "lock-discipline"
        assert finding.file == "src/repro/cache/store.py"
        assert finding.line == 14
        assert finding.detail == "Cache._entries"

    def test_consistent_locking_is_clean(self, tmp_path):
        _write(
            tmp_path,
            "src/repro/cache/store.py",
            """\
            import threading


            class Cache:
                def __init__(self):
                    self._lock = threading.RLock()
                    self._entries = {}

                def put(self, key, value):
                    with self._lock:
                        self._entries = {**self._entries, key: value}

                def clear(self):
                    with self._lock:
                        self._entries = {}
            """,
        )
        assert _run_rule(tmp_path, "lock-discipline") == []

    def test_constructor_writes_exempt(self, tmp_path):
        _write(
            tmp_path,
            "src/repro/cache/store.py",
            """\
            import threading


            class Cache:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._entries = {}
                    self._hits = 0

                def bump(self):
                    with self._lock:
                        self._hits += 1
            """,
        )
        assert _run_rule(tmp_path, "lock-discipline") == []


class TestEnvPass:
    def _seed_env_module(self, root: Path, *names: str, doc: str = "REPRO_DEMO_KNOB") -> None:
        _write(root, "docs/configuration.md", f"| `{doc}` | `quick` | demo |\n")
        rows = "".join(f'    Knob("{name}", "quick"),\n' for name in names)
        _write(
            root,
            "src/repro/env.py",
            "import os\n\n"
            "def read(name):\n"
            '    return os.environ.get(name, "")\n\n'
            f"KNOBS = [\n{rows}]\n",
        )

    def test_env_module_reads_and_documented_knobs_are_clean(self, tmp_path):
        self._seed_env_module(tmp_path, "REPRO_DEMO_KNOB")
        _write(
            tmp_path,
            "src/repro/mod.py",
            """\
            from repro import env

            VALUE = env.read("REPRO_DEMO_KNOB")
            """,
        )
        assert _run_rule(tmp_path, "env-registry") == []

    def test_read_outside_env_module_flagged(self, tmp_path):
        self._seed_env_module(tmp_path, "REPRO_DEMO_KNOB")
        _write(
            tmp_path,
            "src/repro/mod.py",
            """\
            import os

            VALUE = os.environ.get("REPRO_DEMO_KNOB", "quick")
            """,
        )
        findings = _run_rule(tmp_path, "env-registry")
        assert [(f.file, f.line, f.detail) for f in findings] == [
            ("src/repro/mod.py", 3, "read:os.environ.get")
        ]

    def test_aliased_reads_flagged(self, tmp_path):
        """Every spelling of the process environment resolves through the
        import table: subscripts, ``getenv``, a renamed ``os``."""
        _write(
            tmp_path,
            "benchmarks/bench_mod.py",
            """\
            import os as o
            from os import environ, getenv as lookup

            A = environ["REPRO_DEMO_KNOB"]
            B = lookup("REPRO_DEMO_KNOB")
            C = dict(o.environ)
            """,
        )
        findings = _run_rule(tmp_path, "env-registry")
        assert [(f.line, f.detail) for f in findings] == [
            (4, "read:os.environ"),
            (5, "read:os.getenv"),
            (6, "read:os.environ"),
        ]

    def test_reader_helper_is_flagged_too(self, tmp_path):
        """A private reader helper is a second reader: no exemption."""
        _write(
            tmp_path,
            "src/repro/mod.py",
            """\
            import os


            def _env_int(name, fallback):
                raw = os.environ.get(name, "")
                return int(raw) if raw else fallback
            """,
        )
        findings = _run_rule(tmp_path, "env-registry")
        assert [(f.line, f.detail) for f in findings] == [(5, "read:os.environ.get")]

    def test_undocumented_knob_flagged(self, tmp_path):
        self._seed_env_module(tmp_path, "REPRO_DEMO_KNOB", "REPRO_SECRET_KNOB")
        findings = _run_rule(tmp_path, "env-registry")
        assert len(findings) == 1
        (finding,) = findings
        assert finding.rule == "env-registry"
        assert (finding.file, finding.line) == ("src/repro/env.py", 8)
        assert finding.detail == "undocumented:REPRO_SECRET_KNOB"

    def test_non_repro_namespace_flagged(self, tmp_path):
        self._seed_env_module(tmp_path, "REPRO_DEMO_KNOB", "MY_DEBUG")
        findings = _run_rule(tmp_path, "env-registry")
        assert [(f.line, f.detail) for f in findings] == [(8, "MY_DEBUG")]


class TestExportsPass:
    def test_unbound_all_entry_flagged(self, tmp_path):
        _write(
            tmp_path,
            "src/repro/__init__.py",
            """\
            from repro.core import thing

            __all__ = ["thing", "missing"]
            """,
        )
        _write(
            tmp_path,
            "src/repro/core.py",
            """\
            def thing():
                return 1
            """,
        )
        findings = _run_rule(tmp_path, "api-drift")
        assert len(findings) == 1
        (finding,) = findings
        assert finding.rule == "api-drift"
        assert finding.file == "src/repro/__init__.py"
        assert finding.line == 3
        assert finding.detail == "repro:__all__:missing"

    def test_duplicate_all_entry_flagged(self, tmp_path):
        _write(
            tmp_path,
            "src/repro/__init__.py",
            """\
            from repro.core import thing

            __all__ = ["thing", "thing"]
            """,
        )
        _write(tmp_path, "src/repro/core.py", "def thing():\n    return 1\n")
        findings = _run_rule(tmp_path, "api-drift")
        assert len(findings) == 1
        assert findings[0].detail == "repro:__all__:duplicate:thing"

    def test_lazy_map_checked_both_ways(self, tmp_path):
        _write(
            tmp_path,
            "src/repro/__init__.py",
            """\
            __all__ = ["api"]

            _LAZY_SUBMODULES = ("api", "ghost")
            """,
        )
        _write(tmp_path, "src/repro/api.py", "def serve():\n    return 1\n")
        findings = _run_rule(tmp_path, "api-drift")
        details = {finding.detail for finding in findings}
        assert details == {
            "repro:lazy:missing-module:ghost",
            "repro:lazy:unexported:ghost",
        }

    def test_facade_import_of_missing_name_flagged(self, tmp_path):
        _write(tmp_path, "src/repro/__init__.py", "")
        _write(
            tmp_path,
            "src/repro/api.py",
            """\
            from repro.core import nope

            __all__ = ["nope"]
            """,
        )
        _write(tmp_path, "src/repro/core.py", "def thing():\n    return 1\n")
        findings = _run_rule(tmp_path, "api-drift")
        assert len(findings) == 1
        assert findings[0].detail == "repro.api:from:repro.core:nope"

    def test_consistent_surface_is_clean(self, tmp_path):
        _write(
            tmp_path,
            "src/repro/__init__.py",
            """\
            from repro.core import thing

            __all__ = ["thing", "api"]

            _LAZY_SUBMODULES = ("api",)
            """,
        )
        _write(tmp_path, "src/repro/core.py", "def thing():\n    return 1\n")
        _write(
            tmp_path,
            "src/repro/api.py",
            """\
            from repro.core import thing

            __all__ = ["thing"]
            """,
        )
        assert _run_rule(tmp_path, "api-drift") == []


class TestEnginesPass:
    """Mini engines packages with exactly one planted inconsistency each."""

    def _engine_module(self, root, body):
        _write(
            root,
            "src/repro/optimize/engines/grid.py",
            "from repro.optimize.engines.base import register_engine\n\n\n" + body,
        )

    def _consistent_repo(self, root):
        self._engine_module(
            root,
            '@register_engine("grid")\nclass GridEngine:\n    pass\n',
        )
        _write(
            root,
            "src/repro/optimize/engines/__init__.py",
            """\
            from repro.optimize.engines import grid

            __all__ = ["GridEngine"]
            """,
        )
        _write(root, "docs/optimize.md", "| `grid` | `GridEngine` | demo engine |\n")

    def test_consistent_registry_is_clean(self, tmp_path):
        self._consistent_repo(tmp_path)
        assert _run_rule(tmp_path, "engine-registry") == []

    def test_tree_without_engines_is_clean(self, tmp_path):
        _write(tmp_path, "src/repro/mod.py", "def thing():\n    return 1\n")
        assert _run_rule(tmp_path, "engine-registry") == []

    def test_duplicate_registration_flagged(self, tmp_path):
        self._consistent_repo(tmp_path)
        self._engine_module(
            tmp_path,
            '@register_engine("grid")\nclass GridEngine:\n    pass\n\n\n'
            '@register_engine("grid")\nclass OtherEngine:\n    pass\n',
        )
        _write(
            tmp_path,
            "src/repro/optimize/engines/__init__.py",
            """\
            from repro.optimize.engines import grid

            __all__ = ["GridEngine", "OtherEngine"]
            """,
        )
        findings = _run_rule(tmp_path, "engine-registry")
        assert len(findings) == 1
        (finding,) = findings
        assert finding.rule == "engine-registry"
        assert finding.file == "src/repro/optimize/engines/grid.py"
        assert finding.line == 10  # the second class statement
        assert finding.detail == "repro.optimize.engines.grid:duplicate:grid"

    def test_unimported_engine_module_flagged(self, tmp_path):
        self._consistent_repo(tmp_path)
        _write(
            tmp_path,
            "src/repro/optimize/engines/__init__.py",
            '__all__ = ["GridEngine"]\n',
        )
        findings = _run_rule(tmp_path, "engine-registry")
        assert len(findings) == 1
        (finding,) = findings
        assert finding.file == "src/repro/optimize/engines/__init__.py"
        assert finding.line == 1
        assert finding.detail == (
            "repro.optimize.engines:unimported:repro.optimize.engines.grid"
        )

    def test_unexported_engine_class_flagged(self, tmp_path):
        self._consistent_repo(tmp_path)
        _write(
            tmp_path,
            "src/repro/optimize/engines/__init__.py",
            """\
            from repro.optimize.engines import grid

            __all__ = ["register_engine"]
            """,
        )
        findings = _run_rule(tmp_path, "engine-registry")
        assert len(findings) == 1
        (finding,) = findings
        assert finding.file == "src/repro/optimize/engines/grid.py"
        assert finding.line == 5  # the class statement
        assert finding.detail == "repro.optimize.engines.grid:unexported:GridEngine"

    def test_undocumented_engine_name_flagged(self, tmp_path):
        self._consistent_repo(tmp_path)
        _write(tmp_path, "docs/optimize.md", "no engine table here\n")
        findings = _run_rule(tmp_path, "engine-registry")
        assert len(findings) == 1
        (finding,) = findings
        assert finding.file == "src/repro/optimize/engines/grid.py"
        assert finding.detail == "repro.optimize.engines.grid:undocumented:grid"

    def test_missing_docs_page_tolerated(self, tmp_path):
        self._consistent_repo(tmp_path)
        (tmp_path / "docs" / "optimize.md").unlink()
        assert _run_rule(tmp_path, "engine-registry") == []


class TestWirePass:
    def test_declared_decoders_are_clean(self, tmp_path):
        _write(
            tmp_path,
            "src/repro/mod.py",
            """\
            from repro import wire
            from repro.wire import decode


            class Job:
                @classmethod
                def from_dict(cls, payload):
                    return wire.decode(cls, payload, "job", ValueError)


            class Spec:
                @classmethod
                def from_dict(cls, payload):
                    return decode(cls, payload, "spec", ValueError)

                def as_dict(self):
                    return {"n": int(self.n)}  # not a decoder


            class Event:
                from_dict = wire.from_dict("event", ValueError)
            """,
        )
        assert _run_rule(tmp_path, "wire-decoder") == []

    def test_declaration_not_from_wire_flagged(self, tmp_path):
        _write(
            tmp_path,
            "src/repro/mod.py",
            """\
            import json


            class Event:
                from_dict = classmethod(lambda cls, payload: cls(**payload))
            """,
        )
        findings = _run_rule(tmp_path, "wire-decoder")
        assert [(f.line, f.detail) for f in findings] == [
            (5, "repro.mod.Event.from_dict:no-wire")
        ]

    def test_hand_written_decoder_flagged(self, tmp_path):
        _write(
            tmp_path,
            "src/repro/mod.py",
            """\
            class Job:
                @classmethod
                def from_dict(cls, payload):
                    return cls(kernels=int(payload["kernels"]))
            """,
        )
        findings = _run_rule(tmp_path, "wire-decoder")
        assert [(f.rule, f.line, f.detail) for f in findings] == [
            ("wire-decoder", 3, "repro.mod.Job.from_dict:no-wire"),
            ("wire-decoder", 4, "repro.mod.Job.from_dict:int"),
        ]

    def test_coercion_beside_wire_call_flagged(self, tmp_path):
        _write(
            tmp_path,
            "src/repro/mod.py",
            """\
            from repro import wire


            class Job:
                @classmethod
                def from_dict(cls, payload):
                    data = wire.read(cls, payload, "job", ValueError)
                    data["flag"] = bool(payload.get("flag"))
                    return cls(**data)
            """,
        )
        findings = _run_rule(tmp_path, "wire-decoder")
        assert [(f.line, f.detail) for f in findings] == [
            (8, "repro.mod.Job.from_dict:bool")
        ]


    def test_from_state_coercion_flagged(self, tmp_path):
        """Engine checkpoints decode through the wire module as well; an
        abstract ``from_state`` declares the protocol and is exempt."""
        _write(
            tmp_path,
            "src/repro/mod.py",
            """\
            import abc

            from repro import wire


            class Engine(abc.ABC):
                @classmethod
                @abc.abstractmethod
                def from_state(cls, state):
                    \"\"\"Rebuild an engine.\"\"\"


            class Bisect(Engine):
                @classmethod
                def from_state(cls, state):
                    return cls(max_iterations=int(state["max_iterations"]))


            class Walk(Engine):
                @classmethod
                def from_state(cls, state):
                    return cls(**wire.read(cls, state, "walk state", ValueError))
            """,
        )
        findings = _run_rule(tmp_path, "wire-decoder")
        assert [(f.line, f.detail) for f in findings] == [
            (15, "repro.mod.Bisect.from_state:no-wire"),
            (16, "repro.mod.Bisect.from_state:int"),
        ]


class TestSwallowPass:
    def test_silent_broad_handlers_flagged(self, tmp_path):
        _write(
            tmp_path,
            "src/repro/mod.py",
            """\
            def cleanup(entry):
                try:
                    entry.close()
                except Exception:
                    pass


            def publish(entry):
                try:
                    entry.flush()
                except:
                    entry.dirty = True
            """,
        )
        findings = _run_rule(tmp_path, "no-silent-swallow")
        assert [f.detail for f in findings] == ["cleanup:Exception", "publish:bare"]
        assert [f.line for f in findings] == [4, 11]
        assert all(f.rule == "no-silent-swallow" for f in findings)

    def test_alias_tuple_and_nested_handlers_flagged(self, tmp_path):
        _write(
            tmp_path,
            "src/repro/mod.py",
            """\
            import builtins as b


            class Store:
                def drop(self):
                    def inner():
                        try:
                            self.conn.close()
                        except (ValueError, b.BaseException):
                            pass
                    inner()
            """,
        )
        findings = _run_rule(tmp_path, "no-silent-swallow")
        assert len(findings) == 1
        assert findings[0].detail == "Store.drop.inner:BaseException"

    def test_loud_handlers_are_clean(self, tmp_path):
        _write(
            tmp_path,
            "src/repro/mod.py",
            """\
            import logging


            def mapped(entry):
                try:
                    return entry.load()
                except Exception as exc:
                    raise RuntimeError("load failed") from exc


            def sentinel(entry):
                try:
                    return entry.load()
                except Exception:
                    return None


            def accounted(entry, stats):
                try:
                    entry.flush()
                except Exception as exc:
                    stats.record(str(exc))


            def logged(entry):
                try:
                    entry.flush()
                except Exception:
                    logging.warning("flush failed")


            def narrow(entry):
                try:
                    entry.flush()
                except OSError:
                    pass
            """,
        )
        assert _run_rule(tmp_path, "no-silent-swallow") == []

    def test_same_scope_duplicates_get_stable_ordinals(self, tmp_path):
        _write(
            tmp_path,
            "src/repro/mod.py",
            """\
            def twice(entry):
                try:
                    entry.open()
                except Exception:
                    pass
                try:
                    entry.close()
                except Exception:
                    pass
            """,
        )
        findings = _run_rule(tmp_path, "no-silent-swallow")
        assert [f.detail for f in findings] == ["twice:Exception", "twice:Exception#2"]


class TestBaseline:
    def _seed_violation(self, root: Path) -> None:
        _write(root, "docs/configuration.md", "`REPRO_DEMO_KNOB`\n")
        _write(
            root,
            "src/repro/mod.py",
            'import os\n\nVALUE = os.environ.get("REPRO_ROGUE_KNOB", "x")\n',
        )  # a read outside repro/env.py

    def _baseline(self, root: Path, entries: list) -> Path:
        path = root / "staticcheck-baseline.json"
        path.write_text(json.dumps({"version": 1, "entries": entries}))
        return path

    def test_matching_entry_suppresses(self, tmp_path):
        self._seed_violation(tmp_path)
        self._baseline(
            tmp_path,
            [
                {
                    "rule": "env-registry",
                    "file": "src/repro/mod.py",
                    "detail": "read:os.environ.get",
                    "reason": "legacy knob, removal tracked elsewhere",
                }
            ],
        )
        report = run_staticcheck(tmp_path, rules=["env-registry"])
        assert report.ok
        assert report.findings == []
        assert len(report.suppressed) == 1

    def test_stale_entry_fails_run(self, tmp_path):
        _write(tmp_path, "docs/configuration.md", "x\n")
        _write(tmp_path, "src/repro/mod.py", "VALUE = 1\n")
        self._baseline(
            tmp_path,
            [
                {
                    "rule": "env-registry",
                    "file": "src/repro/mod.py",
                    "detail": "undocumented:REPRO_GONE",
                    "reason": "was here once",
                }
            ],
        )
        report = run_staticcheck(tmp_path, rules=["env-registry"])
        assert not report.ok
        assert report.findings == []
        assert len(report.stale_baseline) == 1

    def test_rule_filter_ignores_other_rules_entries(self, tmp_path):
        """A --rule run must not call the other rules' entries stale."""
        _write(tmp_path, "docs/configuration.md", "x\n")
        _write(tmp_path, "src/repro/mod.py", "VALUE = 1\n")
        self._baseline(
            tmp_path,
            [
                {
                    "rule": "lock-discipline",
                    "file": "src/repro/other.py",
                    "detail": "Cache._entries",
                    "reason": "single-threaded by construction",
                }
            ],
        )
        report = run_staticcheck(tmp_path, rules=["env-registry"])
        assert report.ok

    def test_entry_without_reason_rejected(self, tmp_path):
        path = self._baseline(
            tmp_path,
            [{"rule": "env-registry", "file": "a.py", "detail": "d", "reason": ""}],
        )
        with pytest.raises(BaselineError, match="reason"):
            load_baseline(path)

    def test_malformed_document_rejected(self, tmp_path):
        path = tmp_path / "staticcheck-baseline.json"
        path.write_text("[]")
        with pytest.raises(BaselineError):
            load_baseline(path)

    def test_missing_file_is_empty(self, tmp_path):
        baseline = load_baseline(tmp_path / "nope.json")
        assert baseline.entries == []


class TestCleanRepo:
    def test_working_tree_matches_baseline_exactly(self):
        """The repo's own code passes every rule, modulo exactly the
        checked-in baseline — no more findings, no stale entries."""
        report = run_staticcheck(REPO_ROOT)
        assert report.ok, "\n" + "\n".join(f.render() for f in report.findings) + str(
            report.stale_baseline
        )
        baseline = load_baseline(REPO_ROOT / "staticcheck-baseline.json")
        assert {f.baseline_key for f in report.suppressed} == baseline.keys
        assert report.rules == [
            "api-drift",
            "async-blocking",
            "engine-registry",
            "env-registry",
            "fingerprint-purity",
            "lock-discipline",
            "no-silent-swallow",
            "wire-decoder",
        ]
        assert report.modules > 100  # the loader actually saw the repo


class TestJsonSchemaAndCli:
    def _cli(self, *args: str, cwd: Path = REPO_ROOT):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
        return subprocess.run(
            [sys.executable, "-m", "repro.staticcheck", *args],
            capture_output=True,
            text=True,
            cwd=cwd,
            env=env,
        )

    def test_report_dict_shape(self, tmp_path):
        _write(tmp_path, "docs/configuration.md", "x\n")
        _write(tmp_path, "src/repro/mod.py", "VALUE = 1\n")
        document = run_staticcheck(tmp_path).as_dict()
        assert document["schema_version"] == SCHEMA_VERSION == 1
        assert set(document) == {
            "schema_version",
            "root",
            "rules",
            "modules",
            "counts",
            "findings",
            "suppressed",
            "stale_baseline",
            "ok",
        }
        assert set(document["counts"]) == {"findings", "suppressed", "stale_baseline"}

    def test_cli_json_on_repo_is_ok(self):
        proc = self._cli("--json")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        document = json.loads(proc.stdout)
        assert document["ok"] is True
        assert document["schema_version"] == 1
        assert document["findings"] == []

    def test_cli_fails_on_seeded_violation(self, tmp_path):
        _write(tmp_path, "docs/configuration.md", "x\n")
        _write(
            tmp_path,
            "src/repro/serve/handler.py",
            "import time\n\n\nasync def handle(request):\n    time.sleep(1)\n",
        )
        proc = self._cli("--root", str(tmp_path), "--rule", "async-blocking")
        assert proc.returncode == 1
        assert "async-blocking" in proc.stdout
        assert "handler.py:5" in proc.stdout

    def test_cli_finding_lines_carry_hints(self, tmp_path):
        _write(tmp_path, "docs/configuration.md", "x\n")
        _write(
            tmp_path,
            "src/repro/serve/handler.py",
            "import time\n\n\nasync def handle(request):\n    time.sleep(1)\n",
        )
        proc = self._cli("--root", str(tmp_path), "--rule", "async-blocking")
        assert "hint:" in proc.stdout

    def test_cli_list_rules(self):
        proc = self._cli("--list-rules")
        assert proc.returncode == 0
        for rule in (
            "fingerprint-purity",
            "async-blocking",
            "lock-discipline",
            "env-registry",
            "api-drift",
        ):
            assert rule in proc.stdout

    def test_cli_unknown_rule_is_usage_error(self):
        proc = self._cli("--rule", "no-such-rule")
        assert proc.returncode == 2
        assert "unknown rule" in proc.stderr
