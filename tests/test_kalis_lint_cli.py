"""CLI behavior tests for kalis-lint: flags, exit codes, baseline workflow."""

import json
import textwrap

import pytest

from repro.analysis.cli import TODO_REASON, main

_DIRTY_TREE = {
    "repro/sim/engine.py": """
    import time


    def stamp():
        \"\"\"Planted wall-clock read.\"\"\"
        return time.time()
    """,
}


def write_tree(tmp_path, files):
    """Materialize {relpath: source} under tmp_path/src with packages."""
    for relpath, content in files.items():
        path = tmp_path / "src" / relpath
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(content), encoding="utf-8")
    for directory in sorted((tmp_path / "src").rglob("*")):
        if directory.is_dir():
            init = directory / "__init__.py"
            if not init.exists():
                init.write_text("", encoding="utf-8")
    return tmp_path / "src" / "repro"


class TestFlags:
    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        listed = [line.split()[0] for line in capsys.readouterr().out.splitlines()]
        for rule_id in ("KL001", "KL002", "KL004", "KL006", "KL007", "KL008"):
            assert rule_id in listed
        # Whole-program rules ride the same registry.
        for rule_id in ("KL101", "KL102", "KL103", "KL104", "KL105"):
            assert rule_id in listed
        # The per-tree label and topic passes gave way to KL101–KL103.
        assert "KL003" not in listed and "KL005" not in listed
        assert len(listed) == 22

    def test_select_unknown_rule_is_usage_error(self, tmp_path, capsys):
        tree = write_tree(tmp_path, _DIRTY_TREE)
        with pytest.raises(SystemExit) as excinfo:
            main(["--root", str(tmp_path), "--select", "KL999", str(tree)])
        assert excinfo.value.code == 2
        capsys.readouterr()

    def test_select_restricts_rules(self, tmp_path, capsys):
        tree = write_tree(tmp_path, _DIRTY_TREE)
        code = main(
            [
                "--root",
                str(tmp_path),
                "--no-baseline",
                "--select",
                "KL002",
                str(tree),
            ]
        )
        assert code == 0  # the planted bug is KL001 territory
        capsys.readouterr()

    def test_json_format(self, tmp_path, capsys):
        tree = write_tree(tmp_path, _DIRTY_TREE)
        code = main(
            [
                "--root",
                str(tmp_path),
                "--no-baseline",
                "--format",
                "json",
                str(tree),
            ]
        )
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["suppressed"] == 0
        (finding,) = payload["findings"]
        assert finding["rule"] == "KL001"
        assert finding["path"] == "src/repro/sim/engine.py"
        assert finding["severity"] == "error"
        assert finding["line"] > 0

    def test_missing_path_is_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--root", str(tmp_path), str(tmp_path / "nope")])
        assert excinfo.value.code == 2
        capsys.readouterr()

    def test_syntax_error_reported_as_kl000(self, tmp_path, capsys):
        tree = write_tree(
            tmp_path, {"repro/core/broken.py": "def oops(:\n"}
        )
        code = main(["--root", str(tmp_path), "--no-baseline", str(tree)])
        out = capsys.readouterr().out
        assert code == 1
        assert "KL000" in out


class TestDottedConstantResolution:
    """KL103 resolves dotted constant references (``consts.TOPIC``)."""

    def _tree(self, tmp_path, topic):
        return write_tree(
            tmp_path,
            {
                "repro/core/consts.py": f'TOPIC = "{topic}"\n',
                "repro/core/user.py": """
                from repro.core import consts


                def wire(bus, handler):
                    bus.subscribe(consts.TOPIC, handler)


                def emit(bus):
                    bus.publish("alert.raised", {})
                """,
            },
        )

    def test_dotted_constant_subscription_without_publisher(
        self, tmp_path, capsys
    ):
        tree = self._tree(tmp_path, "alert.missing")
        code = main(
            [
                "--root", str(tmp_path), "--no-baseline",
                "--select", "KL103", str(tree),
            ]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "alert.missing" in out

    def test_dotted_constant_subscription_with_publisher_is_clean(
        self, tmp_path, capsys
    ):
        tree = self._tree(tmp_path, "alert.raised")
        code = main(
            [
                "--root", str(tmp_path), "--no-baseline",
                "--select", "KL103", str(tree),
            ]
        )
        assert code == 0
        capsys.readouterr()


class TestBaselineWorkflow:
    def test_baseline_suppresses_findings(self, tmp_path, capsys):
        tree = write_tree(tmp_path, _DIRTY_TREE)
        baseline = tmp_path / "kalis-lint.baseline"
        baseline.write_text(
            "KL001 src/repro/sim/engine.py time.time -- legacy wall-clock,"
            " scheduled for removal\n",
            encoding="utf-8",
        )
        code = main(
            ["--root", str(tmp_path), "--baseline", str(baseline), str(tree)]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "1 baselined" in out

    def test_stale_entry_reported_as_kl099(self, tmp_path, capsys):
        tree = write_tree(
            tmp_path,
            {"repro/sim/engine.py": '"""Clean module."""\n'},
        )
        baseline = tmp_path / "kalis-lint.baseline"
        baseline.write_text(
            "KL001 src/repro/sim/engine.py time.time -- fixed long ago\n",
            encoding="utf-8",
        )
        code = main(
            ["--root", str(tmp_path), "--baseline", str(baseline), str(tree)]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "KL099" in out
        assert "stale baseline entry" in out

    def test_stale_entry_ignored_when_file_not_scanned(self, tmp_path, capsys):
        tree = write_tree(
            tmp_path,
            {
                "repro/sim/engine.py": '"""Clean module."""\n',
                "repro/core/other.py": '"""Also clean."""\n',
            },
        )
        baseline = tmp_path / "kalis-lint.baseline"
        baseline.write_text(
            "KL001 src/repro/sim/engine.py time.time -- fixed long ago\n",
            encoding="utf-8",
        )
        # Lint only core/ — the engine.py entry must not be called stale.
        code = main(
            [
                "--root",
                str(tmp_path),
                "--baseline",
                str(baseline),
                str(tree / "core"),
            ]
        )
        assert code == 0
        capsys.readouterr()

    def test_malformed_baseline_is_exit_2(self, tmp_path, capsys):
        tree = write_tree(tmp_path, _DIRTY_TREE)
        baseline = tmp_path / "kalis-lint.baseline"
        baseline.write_text(
            "KL001 src/repro/sim/engine.py time.time\n", encoding="utf-8"
        )
        code = main(
            ["--root", str(tmp_path), "--baseline", str(baseline), str(tree)]
        )
        err = capsys.readouterr().err
        assert code == 2
        assert "justification" in err

    def test_write_baseline_creates_and_preserves_reasons(
        self, tmp_path, capsys
    ):
        tree = write_tree(tmp_path, _DIRTY_TREE)
        baseline = tmp_path / "kalis-lint.baseline"

        code = main(
            [
                "--root",
                str(tmp_path),
                "--baseline",
                str(baseline),
                "--write-baseline",
                str(tree),
            ]
        )
        assert code == 0
        content = baseline.read_text(encoding="utf-8")
        assert "KL001 src/repro/sim/engine.py time.time" in content
        assert TODO_REASON in content

        # Hand-edit the justification, re-write: the reason must survive.
        baseline.write_text(
            content.replace(TODO_REASON, "justified for reasons"),
            encoding="utf-8",
        )
        code = main(
            [
                "--root",
                str(tmp_path),
                "--baseline",
                str(baseline),
                "--write-baseline",
                str(tree),
            ]
        )
        assert code == 0
        content = baseline.read_text(encoding="utf-8")
        assert "justified for reasons" in content
        assert TODO_REASON not in content

        # And the freshly-written baseline makes the tree pass.
        code = main(
            ["--root", str(tmp_path), "--baseline", str(baseline), str(tree)]
        )
        assert code == 0
        capsys.readouterr()


class TestBaselineAudit:
    def test_audit_reports_live_baseline(self, tmp_path, capsys):
        tree = write_tree(tmp_path, _DIRTY_TREE)
        baseline = tmp_path / "kalis-lint.baseline"
        baseline.write_text(
            "KL001 src/repro/sim/engine.py time.time -- legacy wall-clock,"
            " scheduled for removal\n",
            encoding="utf-8",
        )
        code = main(
            [
                "baseline",
                "--audit",
                "--no-cache",
                "--root",
                str(tmp_path),
                "--baseline",
                str(baseline),
                str(tree),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "baseline is live" in out

    def test_audit_flags_stale_entry(self, tmp_path, capsys):
        tree = write_tree(
            tmp_path, {"repro/sim/engine.py": '"""Clean module."""\n'}
        )
        baseline = tmp_path / "kalis-lint.baseline"
        baseline.write_text(
            "KL001 src/repro/sim/engine.py time.time -- fixed long ago\n",
            encoding="utf-8",
        )
        code = main(
            [
                "baseline",
                "--audit",
                "--no-cache",
                "--root",
                str(tmp_path),
                "--baseline",
                str(baseline),
                str(tree),
            ]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "stale KL001 entry" in out
        # Audit alone never rewrites the file.
        assert "fixed long ago" in baseline.read_text(encoding="utf-8")

    def test_prune_drops_only_stale_entries(self, tmp_path, capsys):
        tree = write_tree(tmp_path, _DIRTY_TREE)
        baseline = tmp_path / "kalis-lint.baseline"
        baseline.write_text(
            "KL001 src/repro/sim/engine.py time.time -- legacy wall-clock\n"
            "KL001 src/repro/sim/engine.py time.monotonic -- fixed long ago\n",
            encoding="utf-8",
        )
        code = main(
            [
                "baseline",
                "--audit",
                "--prune",
                "--no-cache",
                "--root",
                str(tmp_path),
                "--baseline",
                str(baseline),
                str(tree),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "pruned 1 stale entry" in out
        text = baseline.read_text(encoding="utf-8")
        assert "time.time" in text
        assert "time.monotonic" not in text

    def test_entries_outside_scanned_paths_survive_prune(self, tmp_path, capsys):
        tree = write_tree(
            tmp_path,
            {
                "repro/sim/engine.py": '"""Clean module."""\n',
                "repro/core/other.py": '"""Also clean."""\n',
            },
        )
        baseline = tmp_path / "kalis-lint.baseline"
        baseline.write_text(
            "KL001 src/repro/sim/engine.py time.time -- not judged here\n",
            encoding="utf-8",
        )
        code = main(
            [
                "baseline",
                "--audit",
                "--prune",
                "--no-cache",
                "--root",
                str(tmp_path),
                "--baseline",
                str(baseline),
                str(tree / "core"),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "outside the scanned paths" in out
        assert "time.time" in baseline.read_text(encoding="utf-8")

    def test_real_tree_baseline_is_live(self, capsys):
        import pathlib

        root = pathlib.Path(__file__).resolve().parent.parent
        code = main(
            [
                "baseline",
                "--audit",
                "--no-cache",
                "--root",
                str(root),
                "--baseline",
                str(root / "kalis-lint.baseline"),
                str(root / "src" / "repro"),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0, out
        assert "baseline is live" in out
