"""Documentation consistency tests (mirror of CI's docs job).

Runs ``scripts/check_docs.py`` against the working tree so broken Markdown
links and environment-variable drift fail the tier-1 suite locally, not
just the CI docs job — and unit-tests the checker's own failure modes,
which the happy path alone would leave unverified.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
CHECKER = REPO_ROOT / "scripts" / "check_docs.py"


class TestRepositoryDocs:
    def test_checker_passes_on_working_tree(self):
        proc = subprocess.run(
            [sys.executable, str(CHECKER)],
            capture_output=True,
            text=True,
            cwd=REPO_ROOT,
        )
        assert proc.returncode == 0, f"docs check failed:\n{proc.stderr}"
        assert "docs OK" in proc.stdout

    def test_docs_tree_is_complete(self):
        """The satellite pages ISSUE/README promise must all exist."""
        for page in (
            "architecture.md",
            "cache.md",
            "activity.md",
            "parallel.md",
            "configuration.md",
        ):
            assert (REPO_ROOT / "docs" / page).is_file(), f"missing docs/{page}"

    def test_fault_catalogue_matches_code(self):
        """The injection-point table in docs/resilience.md lists exactly the
        points and modes of ``repro.faults.CATALOGUE``."""
        text = (REPO_ROOT / "docs" / "resilience.md").read_text()
        section = text.split("### Injection-point catalogue", 1)[1].split("\n#", 1)[0]
        rows = re.findall(r"^\| `([^`]+)` \| ([^|]+) \|", section, flags=re.MULTILINE)
        documented = {point: sorted(re.findall(r"`([^`]+)`", modes)) for point, modes in rows}
        # A fresh interpreter: tests may register demo points in this one.
        path = [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH", "")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
        proc = subprocess.run(
            [
                sys.executable,
                "-c",
                "import json, repro.faults as f; "
                "print(json.dumps({p: sorted(m) for p, m in f.CATALOGUE.items()}))",
            ],
            capture_output=True,
            text=True,
            env=env,
            check=True,
        )
        assert documented == json.loads(proc.stdout)

    def test_table_rows_are_the_declared_knobs(self):
        """One row per ``repro.env.KNOBS`` entry."""
        from repro import env

        text = (REPO_ROOT / "docs" / "configuration.md").read_text()
        rows = re.findall(r"^\| `(REPRO_\w+)` \|", text, flags=re.MULTILINE)
        assert sorted(rows) == sorted(env.KNOBS)

    def test_docs_name_only_declared_knobs(self):
        """README.md and every page under docs/ name no removed ``REPRO_*``
        variable; a trailing ``_`` marks a family prefix (``REPRO_SERVE_*``)."""
        from repro import env

        pages = [REPO_ROOT / "README.md", *sorted((REPO_ROOT / "docs").rglob("*.md"))]
        undeclared = {
            f"{page.relative_to(REPO_ROOT)}: {name}"
            for page in pages
            for name in re.findall(r"REPRO_[A-Z0-9_]*[A-Z0-9]\b", page.read_text())
            if name not in env.KNOBS
        }
        assert undeclared == set()


def _run_checker(root: Path, *flags: str):
    return subprocess.run(
        [sys.executable, *flags, str(CHECKER), "--root", str(root)],
        capture_output=True,
        text=True,
    )


def _write_knobs(root: Path, **knobs) -> None:
    """A stand-in knob table: name -> default."""
    rows = [f"    {name!r}: Knob(default={default!r})," for name, default in knobs.items()]
    (root / "src" / "repro" / "env.py").write_text(
        "from types import SimpleNamespace as Knob\n\nKNOBS = {\n" + "\n".join(rows) + "\n}\n"
    )


def _seed_minimal_repo(root: Path) -> None:
    (root / "docs").mkdir()
    (root / "src" / "repro").mkdir(parents=True)
    (root / "benchmarks").mkdir()
    (root / "README.md").write_text("[docs](docs/configuration.md)\n")
    (root / "docs" / "configuration.md").write_text("| `REPRO_DEMO_KNOB` | `quick` | demo |\n")
    (root / "src" / "mod.py").write_text('KNOB = "REPRO_DEMO_KNOB"\n')
    _write_knobs(root, REPRO_DEMO_KNOB="quick")


class TestCheckerCatchesProblems:
    def _run(self, root: Path):
        return _run_checker(root)

    def _seed_minimal_repo(self, root: Path) -> None:
        _seed_minimal_repo(root)

    def test_minimal_repo_passes(self, tmp_path):
        self._seed_minimal_repo(tmp_path)
        proc = self._run(tmp_path)
        assert proc.returncode == 0, proc.stderr

    def test_runs_on_a_bare_interpreter(self):
        """``-S``: no site-packages, so no numpy; the knob table and the
        staticcheck helpers load from the source tree alone."""
        proc = _run_checker(REPO_ROOT, "-S")
        assert proc.returncode == 0, proc.stderr
        assert "docs OK" in proc.stdout

    def test_broken_link_fails(self, tmp_path):
        self._seed_minimal_repo(tmp_path)
        (tmp_path / "docs" / "extra.md").write_text("[gone](missing.md)\n")
        proc = self._run(tmp_path)
        assert proc.returncode == 1
        assert "broken link" in proc.stderr

    def test_missing_knob_table_fails(self, tmp_path):
        self._seed_minimal_repo(tmp_path)
        (tmp_path / "src" / "repro" / "env.py").unlink()
        proc = self._run(tmp_path)
        assert proc.returncode == 1
        assert "missing src/repro/env.py" in proc.stderr

    def test_declared_knob_without_a_row_fails(self, tmp_path):
        self._seed_minimal_repo(tmp_path)
        _write_knobs(tmp_path, REPRO_DEMO_KNOB="quick", REPRO_SECRET_KNOB=1)
        proc = self._run(tmp_path)
        assert proc.returncode == 1
        assert "undocumented environment variable: REPRO_SECRET_KNOB" in proc.stderr

    def test_undeclared_name_in_code_fails(self, tmp_path):
        self._seed_minimal_repo(tmp_path)
        (tmp_path / "src" / "extra.py").write_text('X = "REPRO_SECRET_KNOB"\n')
        proc = self._run(tmp_path)
        assert proc.returncode == 1
        assert "undeclared environment variable: REPRO_SECRET_KNOB" in proc.stderr

    def test_digit_bearing_env_var_not_truncated(self, tmp_path):
        """Names like REPRO_TIER2_CACHE must be matched whole, not clipped
        at the first digit (which would blind the sync check to them)."""
        self._seed_minimal_repo(tmp_path)
        (tmp_path / "src" / "extra.py").write_text('X = "REPRO_TIER2_CACHE"\n')
        proc = self._run(tmp_path)
        assert proc.returncode == 1
        assert "undeclared environment variable: REPRO_TIER2_CACHE" in proc.stderr

    def test_stale_documented_env_var_fails(self, tmp_path):
        self._seed_minimal_repo(tmp_path)
        (tmp_path / "docs" / "configuration.md").write_text(
            "| `REPRO_DEMO_KNOB` | `quick` | demo |\n`REPRO_REMOVED_KNOB`\n"
        )
        proc = self._run(tmp_path)
        assert proc.returncode == 1
        assert "stale documentation: REPRO_REMOVED_KNOB" in proc.stderr

    def test_external_links_and_fragments_ignored(self, tmp_path):
        self._seed_minimal_repo(tmp_path)
        (tmp_path / "docs" / "extra.md").write_text(
            "[web](https://example.com/x) [anchor](#section) "
            "[frag](configuration.md#somewhere)\n"
        )
        proc = self._run(tmp_path)
        assert proc.returncode == 0, proc.stderr

    def test_wildcard_family_mention_is_not_a_name(self, tmp_path):
        """Prose like ``REPRO_SERVE_*`` ("the whole knob family") must not
        half-match as an env-var name and trip the sync check."""
        self._seed_minimal_repo(tmp_path)
        (tmp_path / "src" / "extra.py").write_text(
            '"""The REPRO_DEMO_* family of knobs."""\n'
        )
        proc = self._run(tmp_path)
        assert proc.returncode == 0, proc.stderr


class TestCheckerDefaultsSync:
    """Failure modes of the default-value sync check (check #3)."""

    def _run(self, root: Path):
        return _run_checker(root)

    def _seed(self, root: Path, default_cell: str, **knobs) -> None:
        _seed_minimal_repo(root)
        _write_knobs(root, **(knobs or {"REPRO_DEMO_KNOB": "quick"}))
        (root / "docs" / "configuration.md").write_text(
            "| Variable | Default | Meaning |\n"
            "|---|---|---|\n"
            f"| `REPRO_DEMO_KNOB` | {default_cell} | demo |\n"
        )

    def test_matching_string_default_passes(self, tmp_path):
        self._seed(tmp_path, "`quick`")
        proc = self._run(tmp_path)
        assert proc.returncode == 0, proc.stderr

    def test_mismatched_default_fails(self, tmp_path):
        self._seed(tmp_path, "`slow`")
        proc = self._run(tmp_path)
        assert proc.returncode == 1
        assert "default mismatch for REPRO_DEMO_KNOB" in proc.stderr
        assert "`quick`" in proc.stderr and "`slow`" in proc.stderr

    def test_integer_default_compared(self, tmp_path):
        self._seed(tmp_path, "`64`", REPRO_DEMO_KNOB=64)
        proc = self._run(tmp_path)
        assert proc.returncode == 0, proc.stderr

    def test_float_default_is_written_shortest(self, tmp_path):
        self._seed(tmp_path, "`100`", REPRO_DEMO_KNOB=100.0)
        proc = self._run(tmp_path)
        assert proc.returncode == 0, proc.stderr

    def test_prose_cell_fails_when_a_default_is_declared(self, tmp_path):
        """A declared default with a prose Default cell is drift: the
        table must carry the mechanical value."""
        self._seed(tmp_path, "the quick profile")
        proc = self._run(tmp_path)
        assert proc.returncode == 1
        assert "default mismatch for REPRO_DEMO_KNOB" in proc.stderr

    def test_no_default_takes_unset_prose(self, tmp_path):
        """A ``None`` (or off) default is documented as prose starting with
        ``unset``; a literal there is drift."""
        self._seed(tmp_path, "unset (memory-only)", REPRO_DEMO_KNOB=None)
        assert self._run(tmp_path).returncode == 0
        (tmp_path / "docs" / "configuration.md").write_text("| `REPRO_DEMO_KNOB` | `x` | demo |\n")
        proc = self._run(tmp_path)
        assert proc.returncode == 1
        assert "default mismatch for REPRO_DEMO_KNOB" in proc.stderr
