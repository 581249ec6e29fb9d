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

    def test_deprecated_env_table_matches_code(self):
        """The Deprecated table in docs/configuration.md maps exactly the
        renamed variables of ``repro._deprecated.RENAMED_ENV``."""
        from repro._deprecated import RENAMED_ENV

        text = (REPO_ROOT / "docs" / "configuration.md").read_text()
        section = text.split("### Deprecated", 1)[1].split("\n#", 1)[0]
        rows = re.findall(r"^\| `(REPRO_\w+)` \| `(REPRO_\w+)` \|", section, flags=re.MULTILINE)
        assert dict(rows) == RENAMED_ENV
        assert len(rows) == len(RENAMED_ENV)


def _run_checker(root: Path):
    return subprocess.run(
        [sys.executable, str(CHECKER), "--root", str(root)],
        capture_output=True,
        text=True,
    )


def _seed_minimal_repo(root: Path) -> None:
    (root / "docs").mkdir()
    (root / "src").mkdir()
    (root / "benchmarks").mkdir()
    (root / "README.md").write_text("[docs](docs/configuration.md)\n")
    (root / "docs" / "configuration.md").write_text("`REPRO_DEMO_KNOB`\n")
    (root / "src" / "mod.py").write_text('KNOB = "REPRO_DEMO_KNOB"\n')


class TestCheckerCatchesProblems:
    def _run(self, root: Path):
        return _run_checker(root)

    def _seed_minimal_repo(self, root: Path) -> None:
        _seed_minimal_repo(root)

    def test_minimal_repo_passes(self, tmp_path):
        self._seed_minimal_repo(tmp_path)
        proc = self._run(tmp_path)
        assert proc.returncode == 0, proc.stderr

    def test_broken_link_fails(self, tmp_path):
        self._seed_minimal_repo(tmp_path)
        (tmp_path / "docs" / "extra.md").write_text("[gone](missing.md)\n")
        proc = self._run(tmp_path)
        assert proc.returncode == 1
        assert "broken link" in proc.stderr

    def test_undocumented_env_var_fails(self, tmp_path):
        self._seed_minimal_repo(tmp_path)
        (tmp_path / "src" / "extra.py").write_text('X = "REPRO_SECRET_KNOB"\n')
        proc = self._run(tmp_path)
        assert proc.returncode == 1
        assert "undocumented environment variable: REPRO_SECRET_KNOB" in proc.stderr

    def test_digit_bearing_env_var_not_truncated(self, tmp_path):
        """Names like REPRO_TIER2_CACHE must be matched whole, not clipped
        at the first digit (which would blind the sync check to them)."""
        self._seed_minimal_repo(tmp_path)
        (tmp_path / "src" / "extra.py").write_text('X = "REPRO_TIER2_CACHE"\n')
        proc = self._run(tmp_path)
        assert proc.returncode == 1
        assert "undocumented environment variable: REPRO_TIER2_CACHE" in proc.stderr

    def test_stale_documented_env_var_fails(self, tmp_path):
        self._seed_minimal_repo(tmp_path)
        (tmp_path / "docs" / "configuration.md").write_text(
            "`REPRO_DEMO_KNOB` `REPRO_REMOVED_KNOB`\n"
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

    def _seed_minimal_repo(self, root: Path) -> None:
        _seed_minimal_repo(root)

    def _write_table_row(self, root: Path, default_cell: str) -> None:
        (root / "docs" / "configuration.md").write_text(
            "| Variable | Default | Meaning |\n"
            "|---|---|---|\n"
            f"| `REPRO_DEMO_KNOB` | {default_cell} | demo |\n"
        )

    def test_matching_string_literal_passes(self, tmp_path):
        self._seed_minimal_repo(tmp_path)
        self._write_table_row(tmp_path, "`quick`")
        (tmp_path / "src" / "mod.py").write_text(
            'X = environ.get("REPRO_DEMO_KNOB", "quick")\n'
        )
        proc = self._run(tmp_path)
        assert proc.returncode == 0, proc.stderr

    def test_mismatched_literal_fails(self, tmp_path):
        self._seed_minimal_repo(tmp_path)
        self._write_table_row(tmp_path, "`slow`")
        (tmp_path / "src" / "mod.py").write_text(
            'X = environ.get("REPRO_DEMO_KNOB", "quick")\n'
        )
        proc = self._run(tmp_path)
        assert proc.returncode == 1
        assert "default mismatch for REPRO_DEMO_KNOB" in proc.stderr
        assert "`quick`" in proc.stderr and "`slow`" in proc.stderr

    def test_integer_default_compared(self, tmp_path):
        self._seed_minimal_repo(tmp_path)
        self._write_table_row(tmp_path, "`64`")
        (tmp_path / "src" / "mod.py").write_text(
            'X = _env_int("REPRO_DEMO_KNOB", 64)\n'
        )
        proc = self._run(tmp_path)
        assert proc.returncode == 0, proc.stderr

    def test_constant_fallback_resolved_in_same_file(self, tmp_path):
        """A read site falling back to an UPPER_CASE constant is compared
        through the constant's literal assignment."""
        self._seed_minimal_repo(tmp_path)
        self._write_table_row(tmp_path, "`8035`")
        (tmp_path / "src" / "mod.py").write_text(
            "DEFAULT_PORT = 8035\n"
            'X = environ.get("REPRO_DEMO_KNOB", DEFAULT_PORT)\n'
        )
        proc = self._run(tmp_path)
        assert proc.returncode == 0, proc.stderr

    def test_constant_fallback_mismatch_fails(self, tmp_path):
        self._seed_minimal_repo(tmp_path)
        self._write_table_row(tmp_path, "`9000`")
        (tmp_path / "src" / "mod.py").write_text(
            "DEFAULT_PORT = 8035\n"
            'X = environ.get("REPRO_DEMO_KNOB", DEFAULT_PORT)\n'
        )
        proc = self._run(tmp_path)
        assert proc.returncode == 1
        assert "default mismatch for REPRO_DEMO_KNOB" in proc.stderr

    def test_prose_default_cell_fails_when_code_has_literal(self, tmp_path):
        """A literal fallback in code with a prose Default cell is drift:
        the table must carry the mechanical value."""
        self._seed_minimal_repo(tmp_path)
        self._write_table_row(tmp_path, "the quick profile")
        (tmp_path / "src" / "mod.py").write_text(
            'X = environ.get("REPRO_DEMO_KNOB", "quick")\n'
        )
        proc = self._run(tmp_path)
        assert proc.returncode == 1
        assert "default mismatch for REPRO_DEMO_KNOB" in proc.stderr

    def test_empty_string_sentinel_exempt(self, tmp_path):
        """``environ.get("REPRO_X", "")`` means "unset", not a default —
        any prose cell is fine."""
        self._seed_minimal_repo(tmp_path)
        self._write_table_row(tmp_path, "unset")
        (tmp_path / "src" / "mod.py").write_text(
            'X = environ.get("REPRO_DEMO_KNOB", "")\n'
        )
        proc = self._run(tmp_path)
        assert proc.returncode == 0, proc.stderr

    def test_inconsistent_code_defaults_fail(self, tmp_path):
        """Two read sites disagreeing on the fallback is a bug even before
        documentation enters the picture."""
        self._seed_minimal_repo(tmp_path)
        self._write_table_row(tmp_path, "`quick`")
        (tmp_path / "src" / "mod.py").write_text(
            'X = environ.get("REPRO_DEMO_KNOB", "quick")\n'
        )
        (tmp_path / "src" / "other.py").write_text(
            'Y = environ.get("REPRO_DEMO_KNOB", "slow")\n'
        )
        proc = self._run(tmp_path)
        assert proc.returncode == 1
        assert "inconsistent defaults in code for REPRO_DEMO_KNOB" in proc.stderr
