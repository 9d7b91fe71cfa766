"""State-graph rules (KL201–KL205), exports, and the runtime census."""

import textwrap
from pathlib import Path

import pytest

from repro.analysis.census import run_census
from repro.analysis.cli import main
from repro.analysis.engine import run_rules
from repro.analysis.project import Project
from repro.analysis.stategraph import (
    CHECKPOINT_ROOTS,
    derive_stategraph,
    export_dot,
    export_json,
)

ROOT = Path(__file__).resolve().parent.parent


def make_project(tmp_path, files):
    """Write a ``src/`` tree from {relpath: source} and parse it."""
    for relpath, content in files.items():
        path = tmp_path / "src" / relpath
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(content), encoding="utf-8")
    for directory in sorted((tmp_path / "src").rglob("*")):
        if directory.is_dir():
            init = directory / "__init__.py"
            if not init.exists():
                init.write_text("", encoding="utf-8")
    return Project.load([tmp_path / "src" / "repro"], root=tmp_path)


def run(tmp_path, files, rule):
    return run_rules(make_project(tmp_path, files), select=[rule])


class TestKL201HiddenState:
    VIOLATION = {
        "repro/core/tracker.py": """
        _SEEN = {}

        def note(key):
            _SEEN[key] = True
        """,
    }
    CLEAN = {
        "repro/core/tracker.py": """
        _LIMITS = {"max": 10}
        _NAMES = ("a", "b")

        def limit():
            return _LIMITS["max"]
        """,
    }

    def test_mutated_module_global_flagged(self, tmp_path):
        findings = run(tmp_path, self.VIOLATION, "KL201")
        assert [f.key for f in findings] == ["_SEEN"]
        assert "outside every checkpoint root" in findings[0].message

    def test_unmutated_globals_pass(self, tmp_path):
        assert run(tmp_path, self.CLEAN, "KL201") == []

    def test_imported_global_mutated_elsewhere_flagged(self, tmp_path):
        """Mutation through an import resolves back to the definer."""
        files = {
            "repro/core/registry.py": """
            TABLE = {}
            """,
            "repro/core/user.py": """
            from repro.core.registry import TABLE

            def add(key):
                TABLE[key] = 1
            """,
        }
        findings = run(tmp_path, files, "KL201")
        assert [f.key for f in findings] == ["TABLE"]
        assert findings[0].path.endswith("registry.py")

    def test_class_level_mutable_flagged(self, tmp_path):
        files = {
            "repro/core/pool.py": """
            class Pool:
                shared = []

                def add(self, item):
                    self.shared.append(item)
            """,
        }
        findings = run(tmp_path, files, "KL201")
        assert [f.key for f in findings] == ["Pool.shared"]


class TestKL202NonPicklable:
    VIOLATION = {
        "repro/core/node.py": """
        import threading

        class KalisNode:
            def __init__(self):
                self._lock = threading.Lock()
                self._pick = lambda x: x
        """,
    }
    CLEAN = {
        "repro/core/node.py": """
        import threading

        class KalisNode:
            def __init__(self):
                self._lock = threading.Lock()

            def __getstate__(self):
                return {}
        """,
    }

    def test_lock_and_lambda_on_root_flagged(self, tmp_path):
        findings = run(tmp_path, self.VIOLATION, "KL202")
        assert [f.key for f in findings] == [
            "KalisNode._lock",
            "KalisNode._pick",
        ]
        assert "non-picklable" in findings[0].message

    def test_getstate_hook_silences(self, tmp_path):
        assert run(tmp_path, self.CLEAN, "KL202") == []

    def test_unreachable_class_not_flagged(self, tmp_path):
        files = {
            "repro/tools/scratch.py": """
            import threading

            class Scratch:
                def __init__(self):
                    self._lock = threading.Lock()
            """,
        }
        assert run(tmp_path, files, "KL202") == []


class TestKL203RngProvenance:
    VIOLATION = {
        "repro/sim/world.py": """
        import random

        from repro.util.rng import HashedStream

        class Simulator:
            def __init__(self):
                self.rng = random.Random(7)
                self.stream = HashedStream(42, "links")
        """,
    }
    CLEAN = {
        "repro/sim/world.py": """
        from repro.util.rng import SeededRng

        class Simulator:
            def __init__(self, seed, rng=None):
                self.rng = rng if rng is not None else SeededRng(0, "sim")
                self.derived = SeededRng(seed, "links")
        """,
    }

    def test_raw_random_and_literal_seed_flagged(self, tmp_path):
        findings = run(tmp_path, self.VIOLATION, "KL203")
        keys = sorted(f.key for f in findings)
        assert keys == ["HashedStream", "random.Random"]

    def test_injectable_default_idiom_exempt(self, tmp_path):
        assert run(tmp_path, self.CLEAN, "KL203") == []

    def test_util_rng_itself_exempt(self, tmp_path):
        files = {
            "repro/util/rng.py": """
            import numpy as np

            class SeededRng:
                def __init__(self, seed):
                    self._np = np.random.default_rng(seed)
            """,
        }
        assert run(tmp_path, files, "KL203") == []

    def test_np_random_flagged(self, tmp_path):
        files = {
            "repro/sim/noise.py": """
            import numpy as np

            def sample():
                return np.random.random()
            """,
        }
        findings = run(tmp_path, files, "KL203")
        assert [f.key for f in findings] == ["np.random.random"]

    @pytest.mark.parametrize(
        "binding, call",
        [
            ("from numpy import random as npr", "npr.normal()"),
            ("import numpy.random as npr", "npr.normal()"),
            ("from random import shuffle", "shuffle(values)"),
            ("from numpy.random import default_rng", "default_rng()"),
        ],
    )
    def test_aliased_raw_randomness_flagged(self, tmp_path, binding, call):
        """The call head resolves through import aliases and names."""
        files = {
            "repro/fleet/noise.py": f"""
            {binding}

            def draw(values):
                return {call}
            """,
        }
        findings = run(tmp_path, files, "KL203")
        assert [f.key for f in findings] == [call.split("(")[0]]

    def test_seeded_rng_twin_passes(self, tmp_path):
        files = {
            "repro/fleet/noise.py": """
            from repro.util.rng import SeededRng

            def draw(values, seed):
                rng = SeededRng(seed, "noise")
                return rng.shuffled(values), rng.normal()
            """,
        }
        assert run(tmp_path, files, "KL203") == []


class TestKL204StaleCache:
    VIOLATION = {
        "repro/sim/world.py": """
        class Simulator:
            def __init__(self):
                self._grids = {}

            def grid(self, medium):
                if medium not in self._grids:
                    self._grids[medium] = object()
                return self._grids[medium]
        """,
    }
    CLEAN = {
        "repro/sim/world.py": """
        class Simulator:
            def __init__(self):
                self._grids = {}

            def grid(self, medium):
                if medium not in self._grids:
                    self._grids[medium] = object()
                return self._grids[medium]

            def rebuild_derived_state(self):
                self._grids.clear()
        """,
    }

    def test_mutated_cache_without_hook_flagged(self, tmp_path):
        findings = run(tmp_path, self.VIOLATION, "KL204")
        assert [f.key for f in findings] == ["Simulator._grids"]
        assert "rebuild" in findings[0].message

    def test_rebuild_hook_silences(self, tmp_path):
        assert run(tmp_path, self.CLEAN, "KL204") == []


class TestKL205CrossShardAliasing:
    VIOLATION = {
        "repro/experiments/double.py": """
        from repro.sim.world import Simulator

        def run():
            shared = {}
            a = Simulator(shared)
            b = Simulator(shared)
            return a, b
        """,
        "repro/sim/world.py": """
        class Simulator:
            def __init__(self, table=None):
                self.table = table
        """,
    }
    CLEAN = {
        "repro/experiments/double.py": """
        from repro.sim.world import Simulator

        def run():
            a = Simulator({})
            b = Simulator({})
            seed = 7
            c = Simulator(seed)
            d = Simulator(seed)
            return a, b, c, d
        """,
        "repro/sim/world.py": """
        class Simulator:
            def __init__(self, table=None):
                self.table = table
        """,
    }

    def test_shared_mutable_arg_flagged(self, tmp_path):
        findings = run(tmp_path, self.VIOLATION, "KL205")
        assert [f.key for f in findings] == ["shared"]
        assert "2 shard-root constructors" in findings[0].message

    def test_fresh_objects_and_scalars_pass(self, tmp_path):
        assert run(tmp_path, self.CLEAN, "KL205") == []

    def test_mutable_default_param_flagged(self, tmp_path):
        files = {
            "repro/sim/world.py": """
            class Simulator:
                def __init__(self, table={}):
                    self.table = table
            """,
        }
        findings = run(tmp_path, files, "KL205")
        assert [f.key for f in findings] == ["Simulator.__init__"]


class TestFieldOrigins:
    FILES = {
        "repro/core/modules.py": """
        class Base:
            def __init__(self, source):
                self._seen = {}
                self._source = source

        class Middle(Base):
            pass

        class Leaf(Middle):
            def reset(self):
                self._seen.clear()
                self._source.update({})
                self._own.append(1)

        class Rebinding(Base):
            def reset(self, registry):
                self._seen.clear()
                self._seen = registry.seen
        """,
    }

    def _origins(self, tmp_path):
        state = derive_stategraph(make_project(tmp_path, self.FILES))
        return {
            (cls.name, name): entry.origin
            for cls in state.classes.values()
            for name, entry in cls.fields.items()
        }

    def test_mutated_only_field_takes_a_base_initializer_origin(self, tmp_path):
        """Through an intermediate class, each field keeps its own origin."""
        origins = self._origins(tmp_path)
        assert origins[("Base", "_seen")] == "literal"
        assert origins[("Leaf", "_seen")] == "literal"
        assert origins[("Leaf", "_source")] == "param"

    def test_unknown_without_a_base_or_with_an_own_assignment(self, tmp_path):
        """Only a field the class never assigns inherits an origin."""
        origins = self._origins(tmp_path)
        assert origins[("Leaf", "_own")] == "unknown"
        assert origins[("Rebinding", "_seen")] == "unknown"

    def test_real_detection_modules_list_the_alert_cooldown_as_literal(self):
        project = Project.load([ROOT / "src" / "repro"], root=ROOT)
        state = derive_stategraph(project)
        mutating = [
            cls for cls in state.classes.values()
            if cls.module.startswith("repro.core.modules.detection.")
            and "_last_alert_at" in cls.fields
        ]
        assert len(mutating) == 8
        assert {cls.fields["_last_alert_at"].origin for cls in mutating} == {"literal"}


class TestStateGraphExports:
    def test_real_tree_exports_are_byte_identical(self):
        """Two independent derivations render identical JSON and DOT."""
        first = Project.load([ROOT / "src" / "repro"], root=ROOT)
        second = Project.load([ROOT / "src" / "repro"], root=ROOT)
        state_a = derive_stategraph(first)
        state_b = derive_stategraph(second)
        assert export_json(state_a) == export_json(state_b)
        assert export_dot(state_a) == export_dot(state_b)

    def test_json_covers_roots_and_triaged_classes(self):
        project = Project.load([ROOT / "src" / "repro"], root=ROOT)
        rendered = export_json(derive_stategraph(project))
        assert '"repro.sim.engine.Simulator"' in rendered
        assert '"rebuild_derived_state"' in rendered
        assert '"kind": "rng"' in rendered
        for root in ("Simulator", "KalisNode", "DataStore", "KnowledgeBase"):
            assert root in CHECKPOINT_ROOTS
            assert f".{root}\"" in rendered

    def test_dot_marks_roots(self):
        project = Project.load([ROOT / "src" / "repro"], root=ROOT)
        rendered = export_dot(derive_stategraph(project))
        assert '"Simulator" [shape=doubleoctagon];' in rendered
        assert rendered.endswith("}\n")

    def test_cli_state_view(self, tmp_path, capsys):
        code = main(
            [
                "graph",
                "--view",
                "state",
                "--root",
                str(ROOT),
                str(ROOT / "src" / "repro"),
                "--output",
                str(tmp_path / "state.json"),
            ]
        )
        assert code == 0
        rendered = (tmp_path / "state.json").read_text(encoding="utf-8")
        assert '"classes"' in rendered and '"module_state"' in rendered


class TestRuntimeStateCensus:
    """The static inventory must be a superset of live object graphs."""

    def _index(self):
        project = Project.load([ROOT / "src" / "repro"], root=ROOT)
        state = derive_stategraph(project)
        return state.inventory_index(), state.injected_attribute_names()

    def test_census_covers_e1_flood_world(self):
        from repro.experiments import icmp_flood_scenario
        from repro.experiments.common import run_kalis_on_trace

        index, injected = self._index()
        built = icmp_flood_scenario.build(seed=7, symptom_instances=4)
        _, kalis = run_kalis_on_trace(built.trace, built.instances)
        report = run_census([built.sim, kalis], index, injected)
        assert report.objects > 100
        assert report.missing_classes == []
        assert report.missing == []

    def test_census_covers_e14_chaos_world(self):
        from repro.experiments import chaos_scenario

        index, injected = self._index()
        result = chaos_scenario.run(seed=23, symptom_instances=6)
        world = result.extra["world"]
        report = run_census(list(world.values()), index, injected)
        assert report.objects > 100
        assert report.missing_classes == []
        assert report.missing == []

    def test_census_reports_planted_unknown_attribute(self):
        """A live attribute the graph does not know is reported."""
        from repro.util.rng import SeededRng

        index, injected = self._index()
        rng = SeededRng(1, "census")
        rng.surprise = {"hidden": True}
        report = run_census([rng], index, injected)
        assert "repro.util.rng.SeededRng.surprise" in report.missing


class TestRealTreeStateRules:
    def test_tree_lints_clean_with_kl2xx(self, capsys):
        code = main(
            [
                "--root",
                str(ROOT),
                "--baseline",
                str(ROOT / "kalis-lint.baseline"),
                "--select",
                "KL201,KL202,KL203,KL204,KL205",
                "--no-cache",
                str(ROOT / "src" / "repro"),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0, out
