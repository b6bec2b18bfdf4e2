"""The docs audit script: reachability, links, CLI mentions."""

import importlib.util
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent

spec = importlib.util.spec_from_file_location(
    "check_docs", REPO_ROOT / "tools" / "check_docs.py"
)
check_docs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(check_docs)


@pytest.fixture()
def repo(tmp_path):
    (tmp_path / "docs").mkdir()
    (tmp_path / "README.md").write_text(
        "# Demo\n\nSee `docs/guide.md` and [the API](docs/api.md).\n"
        "Run `python -m repro fig2 --scale 64` first.\n"
    )
    (tmp_path / "docs" / "guide.md").write_text(
        "Back to [README](../README.md). Also `python -m repro serve`.\n"
    )
    (tmp_path / "docs" / "api.md").write_text("API notes.\n")
    return tmp_path


class TestCheckRepo:
    def test_clean_tree_passes(self, repo):
        assert check_docs.check_repo(repo) == []

    def test_orphan_docs_page_flagged(self, repo):
        (repo / "docs" / "lost.md").write_text("nobody links here\n")
        problems = check_docs.check_repo(repo)
        assert any("lost.md" in p and "not reachable" in p for p in problems)

    def test_transitive_reachability_counts(self, repo):
        # README -> guide.md -> deep.md: reachable through a chain.
        (repo / "docs" / "guide.md").write_text("See `docs/deep.md`.\n")
        (repo / "docs" / "deep.md").write_text("deep\n")
        assert check_docs.check_repo(repo) == []

    def test_broken_relative_link_flagged(self, repo):
        (repo / "docs" / "guide.md").write_text("[gone](missing.md)\n")
        problems = check_docs.check_repo(repo)
        assert any(
            "guide.md" in p and "broken link" in p and "missing.md" in p
            for p in problems
        )

    def test_external_links_and_anchors_ignored(self, repo):
        (repo / "docs" / "guide.md").write_text(
            "[web](https://example.com) [sec](#heading) "
            "[frag](../README.md#demo)\n"
        )
        assert check_docs.check_repo(repo) == []

    def test_unknown_cli_subcommand_flagged(self, repo):
        (repo / "docs" / "guide.md").write_text(
            "Try `python -m repro frobnicate --fast`.\n"
        )
        problems = check_docs.check_repo(repo)
        assert any("frobnicate" in p for p in problems)

    def test_removed_bench_subcommand_flagged(self, repo):
        (repo / "docs" / "guide.md").write_text(
            "Gate with `python -m repro bench --quick`.\n"
        )
        assert [p.split(": ", 1)[1] for p in check_docs.check_repo(repo)] == [
            "no such subcommand 'python -m repro bench'"
        ]

    def test_known_subcommands_accepted(self, repo):
        names = " ".join(
            f"`python -m repro {cmd}`"
            for cmd in ("serve", "colo", "chaos", "profile", "table3")
        )
        (repo / "docs" / "guide.md").write_text(names + "\n")
        assert check_docs.check_repo(repo) == []

    def test_flag_of_another_subcommand_flagged(self, repo):
        (repo / "docs" / "guide.md").write_text(
            "Run `python -m repro taxonomy --scale 2048 --plan x`, or\n\n"
            "```bash\npython -m repro explain run.jsonl \\\n"
            "    --window 4 --tenants a   # continued line\n```\n"
        )
        problems = check_docs.check_repo(repo)
        assert [p.split(": ", 1)[1] for p in problems] == [
            "'python -m repro taxonomy' takes no --plan",
            "'python -m repro explain' takes no --tenants",
        ]

    def test_own_flags_help_and_later_commands_accepted(self, repo):
        (repo / "docs" / "guide.md").write_text(
            "`python -m repro serve --rates 1,2 --check --json > out.json`, "
            "`python -m repro chaos --help`; piping is not a flag: "
            "`python -m repro table3 | grep --color x`.\n"
        )
        assert check_docs.check_repo(repo) == []

    def test_readme_command_table_must_match_the_cli(self, repo):
        from repro.cli import COMMANDS

        rows = [name for name in COMMANDS if name != "serve"]
        rows += ["colo", "frobnicate"]
        with open(repo / "README.md", "a") as fp:
            fp.write("\n| Command | What it does |\n|---|---|\n")
            fp.writelines(f"| `{name}` | ... |\n" for name in rows)
        problems = check_docs.check_repo(repo)
        assert [p.split(": ", 1)[1] for p in problems] == [
            "CLI reference table has 2 row(s) for 'colo', the CLI has 1",
            "CLI reference table has 1 row(s) for 'frobnicate', the CLI has 0",
            "CLI reference table has 0 row(s) for 'serve', the CLI has 1",
        ]


class TestMain:
    def test_exit_status_reflects_problems(self, repo, capsys):
        assert check_docs.main(["--root", str(repo)]) == 0
        assert "clean" in capsys.readouterr().out
        (repo / "docs" / "lost.md").write_text("orphan\n")
        assert check_docs.main(["--root", str(repo)]) == 1
        assert "lost.md" in capsys.readouterr().out


class TestRealRepo:
    def test_this_repository_is_clean(self):
        assert check_docs.check_repo(REPO_ROOT) == []
