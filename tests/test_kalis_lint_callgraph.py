"""Tests for the whole-program symbol/call-graph layer and the
project-model resolution hardening that backs it."""

import textwrap
from collections import Counter

import pytest

from repro.analysis.callgraph import CallGraph
from repro.analysis.cli import main
from repro.analysis.engine import run_rules
from repro.analysis.project import Project


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


class TestProjectResolutionHardening:
    def test_aliased_module_import(self, tmp_path):
        """``import repro.consts as c`` resolves ``c.TOPIC``."""
        project = make_project(
            tmp_path,
            {
                "repro/consts.py": 'TOPIC = "alert"\n',
                "repro/user.py": """
                import repro.consts as c

                def topic():
                    return c.TOPIC
                """,
            },
        )
        assert project.resolve_module("repro.user", "c") == "repro.consts"
        assert project.resolve_str_chain("repro.user", ["c", "TOPIC"]) == "alert"

    def test_plain_import_binds_head_segment(self, tmp_path):
        """``import repro.consts`` binds ``repro``; the full dotted chain
        walks submodules."""
        project = make_project(
            tmp_path,
            {
                "repro/consts.py": 'TOPIC = "alert"\n',
                "repro/user.py": "import repro.consts\n",
            },
        )
        assert project.resolve_module("repro.user", "repro") == "repro"
        assert (
            project.resolve_str_chain(
                "repro.user", ["repro", "consts", "TOPIC"]
            )
            == "alert"
        )

    def test_from_import_const_alias(self, tmp_path):
        """``from repro.consts import TOPIC as T`` resolves ``T``."""
        project = make_project(
            tmp_path,
            {
                "repro/consts.py": 'TOPIC = "alert"\n',
                "repro/user.py": "from repro.consts import TOPIC as T\n",
            },
        )
        assert project.resolve_str("repro.user", "T") == "alert"

    def test_relative_import_from_module(self, tmp_path):
        """``from .consts import TOPIC`` inside a plain module."""
        project = make_project(
            tmp_path,
            {
                "repro/pkg/consts.py": 'TOPIC = "alert"\n',
                "repro/pkg/user.py": "from .consts import TOPIC\n",
            },
        )
        assert project.resolve_str("repro.pkg.user", "TOPIC") == "alert"

    def test_relative_import_from_package_init(self, tmp_path):
        """Inside ``pkg/__init__.py``, level-1 refers to ``pkg`` itself —
        the historical off-by-one resolved it against the parent."""
        project = make_project(
            tmp_path,
            {
                "repro/pkg/consts.py": 'TOPIC = "alert"\n',
                "repro/pkg/__init__.py": "from .consts import TOPIC\n",
            },
        )
        assert project.resolve_str("repro.pkg", "TOPIC") == "alert"

    def test_two_level_relative_import(self, tmp_path):
        """``from ..consts import TOPIC`` one package deeper."""
        project = make_project(
            tmp_path,
            {
                "repro/consts.py": 'TOPIC = "alert"\n',
                "repro/pkg/user.py": "from ..consts import TOPIC\n",
            },
        )
        assert project.resolve_str("repro.pkg.user", "TOPIC") == "alert"

    def test_from_pkg_import_submodule(self, tmp_path):
        """``from repro import consts`` binds a module alias."""
        project = make_project(
            tmp_path,
            {
                "repro/consts.py": 'TOPIC = "alert"\n',
                "repro/user.py": "from repro import consts\n",
            },
        )
        assert project.resolve_module("repro.user", "consts") == "repro.consts"
        assert (
            project.resolve_str_chain("repro.user", ["consts", "TOPIC"])
            == "alert"
        )


class TestCallGraph:
    def test_self_method_resolution(self, tmp_path):
        project = make_project(
            tmp_path,
            {
                "repro/mod.py": """
                class Thing:
                    def outer(self):
                        return self.inner()

                    def inner(self):
                        return 1
                """,
            },
        )
        graph = CallGraph.build(project)
        edges = graph.edges[("repro.mod", "Thing.outer")]
        assert ("repro.mod", "Thing.inner") in edges

    def test_method_resolution_through_base_class(self, tmp_path):
        project = make_project(
            tmp_path,
            {
                "repro/base.py": """
                class Base:
                    def helper(self):
                        return 0
                """,
                "repro/derived.py": """
                from repro.base import Base

                class Child(Base):
                    def go(self):
                        return self.helper()
                """,
            },
        )
        graph = CallGraph.build(project)
        edges = graph.edges[("repro.derived", "Child.go")]
        assert ("repro.base", "Base.helper") in edges

    def test_imported_function_resolution(self, tmp_path):
        project = make_project(
            tmp_path,
            {
                "repro/util2.py": """
                def helper():
                    return 0
                """,
                "repro/user.py": """
                from repro.util2 import helper

                def go():
                    return helper()
                """,
            },
        )
        graph = CallGraph.build(project)
        assert ("repro.util2", "helper") in graph.edges[("repro.user", "go")]

    def test_module_alias_call_resolution(self, tmp_path):
        project = make_project(
            tmp_path,
            {
                "repro/util2.py": """
                def helper():
                    return 0
                """,
                "repro/user.py": """
                import repro.util2 as u

                def go():
                    return u.helper()
                """,
            },
        )
        graph = CallGraph.build(project)
        assert ("repro.util2", "helper") in graph.edges[("repro.user", "go")]

    def test_kb_receiver_roles_on_attribute_chains(self, tmp_path):
        """``self.kb``, ``self.ctx.kb`` and ``self.bus`` chains classify."""
        project = make_project(
            tmp_path,
            {
                "repro/mod.py": """
                class Thing:
                    def go(self):
                        self.kb.put("A", 1)
                        self.ctx.kb.get("A")
                        self.bus.publish("t", 1)
                        self.ctx.bus.subscribe("t", print)
                        self.other.frobnicate("x")
                """,
            },
        )
        graph = CallGraph.build(project)
        kinds = {}
        for site in graph.call_sites:
            kind = graph.primitive_kind(site)
            if kind is not None:
                kinds[".".join(site.chain)] = kind
        assert kinds == {
            "self.kb.put": ("kb", "write"),
            "self.ctx.kb.get": ("kb", "read"),
            "self.bus.publish": ("bus", "publish"),
            "self.ctx.bus.subscribe": ("bus", "subscribe"),
        }

    def test_self_primitive_inside_defining_classes(self, tmp_path):
        """``self.publish`` inside EventBus / ``self.put`` inside
        KnowledgeBase are primitives of their own role."""
        project = make_project(
            tmp_path,
            {
                "repro/bus.py": """
                class EventBus:
                    def publish(self, topic, payload):
                        pass

                    def flush(self):
                        self.publish("bus.deadletter", None)
                """,
                "repro/kb.py": """
                class KnowledgeBase:
                    def put(self, label, value):
                        pass

                    def put_static(self, label, value):
                        self.put(label, value)
                """,
            },
        )
        graph = CallGraph.build(project)
        roles = {
            ".".join(site.chain): graph.primitive_kind(site)
            for site in graph.call_sites
            if site.chain[0] == "self"
        }
        assert roles["self.publish"] == ("bus", "publish")
        assert roles["self.put"] == ("kb", "write")

    def test_wrapper_detection_kb_write(self, tmp_path):
        project = make_project(
            tmp_path,
            {
                "repro/mod.py": """
                class Sensor:
                    def _emit(self, label, value):
                        self.ctx.kb.put(label, value)

                    def go(self):
                        self._emit("Rate", 1)
                """,
            },
        )
        graph = CallGraph.build(project)
        spec = graph.wrappers[("repro.mod", "Sensor._emit")]
        assert (spec.role, spec.kind, spec.method) == ("kb", "write", "put")
        assert spec.param == "label" and spec.index == 0

    def test_wrapper_detection_bus_publish_and_nesting(self, tmp_path):
        """Wrappers of wrappers resolve via the fixed point."""
        project = make_project(
            tmp_path,
            {
                "repro/mod.py": """
                class Supervisor:
                    def _publish(self, topic, payload):
                        self.bus.publish(topic, payload)

                    def _notify(self, topic):
                        self._publish(topic, None)
                """,
            },
        )
        graph = CallGraph.build(project)
        outer = graph.wrappers[("repro.mod", "Supervisor._notify")]
        assert (outer.role, outer.kind) == ("bus", "publish")
        assert outer.param == "topic"

    def test_non_forwarding_function_is_not_a_wrapper(self, tmp_path):
        project = make_project(
            tmp_path,
            {
                "repro/mod.py": """
                class Sensor:
                    def _emit(self, value):
                        self.ctx.kb.put("Fixed", value)
                """,
            },
        )
        graph = CallGraph.build(project)
        assert ("repro.mod", "Sensor._emit") not in graph.wrappers


@pytest.fixture
def builds(monkeypatch):
    """Count call-graph constructions and memoized layer builds."""
    counts = Counter()
    build_graph = CallGraph.build
    layer = Project.layer

    def counting_build(project):
        counts["CallGraph.build"] += 1
        return build_graph(project)

    def counting_layer(self, name, build):
        def counted(project):
            counts[name] += 1
            return build(project)

        return layer(self, name, counted)

    monkeypatch.setattr(CallGraph, "build", staticmethod(counting_build))
    monkeypatch.setattr(Project, "layer", counting_layer)
    return counts


class TestLayersBuiltOnce:
    FILES = {
        "repro/core/feeder.py": """
        class Feeder:
            def go(self):
                self.kb.put("Written", 1)
        """,
    }

    def test_full_run_builds_each_layer_once(self, tmp_path, builds):
        run_rules(make_project(tmp_path, self.FILES))
        assert builds == {
            "CallGraph.build": 1,
            "callgraph": 1,
            "flow": 1,
            "state": 1,
            "proc": 1,
        }

    def test_state_export_builds_only_the_state_layer(
        self, tmp_path, builds, capsys
    ):
        make_project(tmp_path, self.FILES)
        tree = str(tmp_path / "src" / "repro")
        assert main(["graph", "--view", "state", "--root", str(tmp_path), tree]) == 0
        capsys.readouterr()
        assert builds == {"CallGraph.build": 1, "callgraph": 1, "state": 1}
