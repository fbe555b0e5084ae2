"""The documentation link-check (tools/check_docs.py) passes on this repo —
and actually catches planted rot."""

import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
CHECKER = REPO / "tools" / "check_docs.py"


def run_checker(*args):
    return subprocess.run(
        [sys.executable, str(CHECKER), *args],
        capture_output=True,
        text=True,
    )


class TestRepoDocs:
    def test_repo_docs_are_clean(self):
        proc = run_checker()
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "docs OK" in proc.stdout

    def test_checks_the_expected_documents(self):
        proc = run_checker()
        for name in ("README.md", "EXPERIMENTS.md", "docs/ARCHITECTURE.md", "docs/RUNNING.md"):
            assert name in proc.stdout


class TestCatchesRot:
    def test_broken_link_target_fails(self, tmp_path):
        (tmp_path / "README.md").write_text("see [the guide](docs/NOPE.md)\n")
        proc = run_checker(str(tmp_path))
        assert proc.returncode == 1
        assert "README.md:1" in proc.stdout
        assert "docs/NOPE.md" in proc.stdout

    def test_failure_still_lists_the_checked_documents(self, tmp_path):
        (tmp_path / "docs").mkdir()
        (tmp_path / "docs" / "GUIDE.md").write_text("# guide\n")
        (tmp_path / "README.md").write_text("see [the guide](docs/NOPE.md)\n")
        proc = run_checker(str(tmp_path))
        assert proc.returncode == 1
        assert "README.md" in proc.stdout and "docs/GUIDE.md" in proc.stdout

    def test_missing_backtick_path_fails(self, tmp_path):
        (tmp_path / "README.md").write_text("run `scripts/do_thing.py` first\n")
        proc = run_checker(str(tmp_path))
        assert proc.returncode == 1
        assert "scripts/do_thing.py" in proc.stdout

    def test_placeholders_commands_and_runtime_paths_are_skipped(self, tmp_path):
        (tmp_path / "README.md").write_text(
            "`runs/<id>/out.csv` then `python tools/x.py --flag` then"
            " [web](https://example.com) and [anchor](#section)\n"
        )
        proc = run_checker(str(tmp_path))
        assert proc.returncode == 0, proc.stdout + proc.stderr

    def test_existing_relative_reference_passes(self, tmp_path):
        (tmp_path / "docs").mkdir()
        (tmp_path / "docs" / "GUIDE.md").write_text("# guide\n")
        (tmp_path / "README.md").write_text("see [guide](docs/GUIDE.md) and `docs/GUIDE.md`\n")
        proc = run_checker(str(tmp_path))
        assert proc.returncode == 0, proc.stdout + proc.stderr


def make_cli_repo(tmp_path, readme):
    """A minimal tree with a fake ``repro`` parser exposing ``--real-flag``."""
    pkg = tmp_path / "src" / "repro"
    pkg.mkdir(parents=True)
    (pkg / "__init__.py").write_text("")
    (pkg / "__main__.py").write_text(
        "import argparse\n"
        "def build_parser():\n"
        "    parser = argparse.ArgumentParser()\n"
        "    sub = parser.add_subparsers()\n"
        "    run = sub.add_parser('run')\n"
        "    run.add_argument('--real-flag')\n"
        "    return parser\n"
    )
    (tmp_path / "README.md").write_text(readme)


class TestCliFlagCrossCheck:
    def test_documented_flag_missing_from_parser_fails(self, tmp_path):
        make_cli_repo(tmp_path, "use `--real-flag` or maybe `--fake-flag`\n")
        proc = run_checker(str(tmp_path))
        assert proc.returncode == 1
        assert "--fake-flag" in proc.stdout
        assert "not accepted" in proc.stdout

    def test_parser_flag_missing_from_docs_fails(self, tmp_path):
        make_cli_repo(tmp_path, "no flags are discussed here\n")
        proc = run_checker(str(tmp_path))
        assert proc.returncode == 1
        assert "--real-flag" in proc.stdout
        assert "documented nowhere" in proc.stdout

    def test_matching_flags_pass(self, tmp_path):
        make_cli_repo(tmp_path, "run with `--real-flag`\n")
        proc = run_checker(str(tmp_path))
        assert proc.returncode == 0, proc.stdout + proc.stderr

    def test_trees_without_the_package_skip_the_flag_check(self, tmp_path):
        (tmp_path / "README.md").write_text("other tool's `--whatever` flag\n")
        proc = run_checker(str(tmp_path))
        assert proc.returncode == 0, proc.stdout + proc.stderr

    def test_external_tool_flags_are_allowlisted(self, tmp_path):
        make_cli_repo(
            tmp_path,
            "use `--real-flag`; compare with `--benchmark-only` and "
            "`--tolerance` via the bench comparator\n",
        )
        proc = run_checker(str(tmp_path))
        assert proc.returncode == 0, proc.stdout + proc.stderr
