"""Per-rule unit tests for kalis-lint, over synthetic mini-trees."""

import textwrap

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


def run(tmp_path, files, rule):
    return run_rules(make_project(tmp_path, files), select=[rule])


class TestDeterminismRule:
    def test_banned_time_call_in_sim(self, tmp_path):
        findings = run(
            tmp_path,
            {
                "repro/sim/engine.py": """
                import time

                def stamp():
                    return time.time()
                """
            },
            "KL001",
        )
        assert [f.key for f in findings] == ["time.time"]
        assert findings[0].path == "src/repro/sim/engine.py"
        assert findings[0].line == 5

    def test_random_import_and_from_time_import(self, tmp_path):
        findings = run(
            tmp_path,
            {
                "repro/core/thing.py": """
                import random
                from time import monotonic
                """
            },
            "KL001",
        )
        assert {f.key for f in findings} == {
            "import.random",
            "import.time.monotonic",
        }

    def test_datetime_class_and_numpy_random(self, tmp_path):
        findings = run(
            tmp_path,
            {
                "repro/attacks/burst.py": """
                from datetime import datetime
                import numpy as np

                def go():
                    return datetime.now(), np.random.random()
                """
            },
            "KL001",
        )
        assert {f.key for f in findings} == {
            "datetime.datetime.now",
            "numpy.random",
        }

    def test_util_and_unguarded_packages_exempt(self, tmp_path):
        findings = run(
            tmp_path,
            {
                "repro/util/wallclock.py": """
                import time

                def now():
                    return time.time()
                """,
                "repro/metrics/timer.py": """
                import time

                def now():
                    return time.time()
                """,
            },
            "KL001",
        )
        assert findings == []


_GOOD_MODULE = """
from repro.core.modules.base import DetectionModule, Requirement
from repro.core.modules.registry import register_module


@register_module
class GoodModule(DetectionModule):
    \"\"\"Detects nothing much.

    Parameters: ``threshold`` (default 3).
    \"\"\"

    NAME = "GoodModule"
    REQUIREMENTS = (Requirement(label="Multihop"),)
    DETECTS = ("smurf",)

    def __init__(self, params=None):
        super().__init__(params)
        self.threshold = self.param("threshold", 3)
"""

class TestModuleContractRule:
    def test_good_module_is_clean(self, tmp_path):
        findings = run(
            tmp_path, {"repro/core/modules/detection/good.py": _GOOD_MODULE},
            "KL002",
        )
        assert findings == []

    def test_missing_name_registration_and_detects(self, tmp_path):
        findings = run(
            tmp_path,
            {
                "repro/core/modules/detection/bad.py": """
                from repro.core.modules.base import DetectionModule


                class BadModule(DetectionModule):
                    \"\"\"Broken on purpose.\"\"\"
                """
            },
            "KL002",
        )
        assert {f.key for f in findings} == {
            "BadModule.NAME",
            "BadModule",
            "BadModule.DETECTS",
        }

    def test_duplicate_name_across_files(self, tmp_path):
        other = _GOOD_MODULE.replace("GoodModule", "OtherModule").replace(
            'NAME = "OtherModule"', 'NAME = "GoodModule"'
        )
        findings = run(
            tmp_path,
            {
                "repro/core/modules/detection/good.py": _GOOD_MODULE,
                "repro/core/modules/detection/other.py": other,
            },
            "KL002",
        )
        assert [f.key for f in findings] == ["duplicate.GoodModule"]

    def test_missing_super_init_and_undocumented_param(self, tmp_path):
        findings = run(
            tmp_path,
            {
                "repro/core/modules/detection/leaky.py": """
                from repro.core.modules.base import DetectionModule
                from repro.core.modules.registry import register_module


                @register_module
                class LeakyModule(DetectionModule):
                    \"\"\"Drops params.\"\"\"

                    NAME = "LeakyModule"
                    DETECTS = ("smurf",)

                    def __init__(self, params=None):
                        self.window = self.param("window", 5.0)
                """
            },
            "KL002",
        )
        assert {f.key for f in findings} == {
            "LeakyModule.__init__",
            "LeakyModule.params.window",
        }


_PACKET_BASE = """
from dataclasses import dataclass


@dataclass(frozen=True)
class Packet:
    \"\"\"Root.\"\"\"

    HEADER_BYTES = 0
"""

_CODEC = """
from repro.net.packets import base as _base
from repro.net.packets import good as _good

_MODULES = (_base, _good)
"""


class TestPacketSchemaRule:
    def test_good_packet_is_clean(self, tmp_path):
        findings = run(
            tmp_path,
            {
                "repro/net/packets/base.py": _PACKET_BASE,
                "repro/net/packets/good.py": """
                from dataclasses import dataclass

                from repro.net.packets.base import Packet


                @dataclass(frozen=True)
                class GoodFrame(Packet):
                    \"\"\"Fine.\"\"\"

                    HEADER_BYTES = 8
                """,
                "repro/net/packets/codec.py": _CODEC,
            },
            "KL004",
        )
        assert findings == []

    def test_unfrozen_unsized_unregistered(self, tmp_path):
        findings = run(
            tmp_path,
            {
                "repro/net/packets/base.py": _PACKET_BASE,
                "repro/net/packets/rogue.py": """
                from dataclasses import dataclass

                from repro.net.packets.base import Packet


                @dataclass
                class RogueFrame(Packet):
                    \"\"\"Broken.\"\"\"
                """,
                "repro/net/packets/codec.py": """
                from repro.net.packets import base as _base

                _MODULES = (_base,)
                """,
            },
            "KL004",
        )
        assert {f.key for f in findings} == {
            "RogueFrame.frozen",
            "RogueFrame.size",
            "RogueFrame.codec",
        }

    def test_size_inherited_from_concrete_ancestor(self, tmp_path):
        findings = run(
            tmp_path,
            {
                "repro/net/packets/base.py": _PACKET_BASE,
                "repro/net/packets/good.py": """
                from dataclasses import dataclass

                from repro.net.packets.base import Packet


                @dataclass(frozen=True)
                class MacFrame(Packet):
                    \"\"\"Sized.\"\"\"

                    HEADER_BYTES = 11


                @dataclass(frozen=True)
                class BeaconFrame(MacFrame):
                    \"\"\"Inherits size from MacFrame.\"\"\"
                """,
                "repro/net/packets/codec.py": _CODEC,
            },
            "KL004",
        )
        assert findings == []


class TestUnusedImportRule:
    def test_unused_import_flagged(self, tmp_path):
        findings = run(
            tmp_path,
            {
                "repro/core/thing.py": """
                import os
                from typing import Dict


                def f() -> Dict:
                    \"\"\"Uses only the typing import.\"\"\"
                    return {}
                """
            },
            "KL006",
        )
        assert [f.key for f in findings] == ["os"]

    def test_string_reference_and_noqa_and_init_exempt(self, tmp_path):
        findings = run(
            tmp_path,
            {
                "repro/core/thing.py": """
                import os  # noqa
                import sys

                __all__ = ["sys"]
                """,
                "repro/core/pkg/__init__.py": """
                import json
                """,
            },
            "KL006",
        )
        assert findings == []


class TestSwallowedExceptionRule:
    def test_bare_except_flagged(self, tmp_path):
        findings = run(
            tmp_path,
            {
                "repro/core/thing.py": """
                def fetch():
                    try:
                        return 1
                    except:
                        return 2
                """
            },
            "KL007",
        )
        assert [f.key for f in findings] == ["fetch.bare"]
        assert findings[0].line == 5

    def test_inert_catch_all_flagged(self, tmp_path):
        findings = run(
            tmp_path,
            {
                "repro/core/thing.py": """
                class Worker:
                    def step(self):
                        try:
                            self.run()
                        except Exception:
                            pass

                def loop(items):
                    for item in items:
                        try:
                            item()
                        except (ValueError, BaseException) as error:
                            continue
                """
            },
            "KL007",
        )
        assert sorted(f.key for f in findings) == [
            "Worker.step.Exception",
            "loop.BaseException",
        ]

    def test_handled_catch_all_and_narrow_swallow_allowed(self, tmp_path):
        findings = run(
            tmp_path,
            {
                "repro/core/thing.py": """
                def safe(callback, failures):
                    try:
                        callback()
                    except Exception as error:
                        failures.append(error)

                def probe(path):
                    try:
                        return path.read_text()
                    except FileNotFoundError:
                        pass
                """
            },
            "KL007",
        )
        assert findings == []

    def test_docstring_and_bare_return_still_inert(self, tmp_path):
        findings = run(
            tmp_path,
            {
                "repro/core/thing.py": """
                def quiet():
                    try:
                        work()
                    except Exception:
                        \"\"\"Nothing to do.\"\"\"
                        return
                """
            },
            "KL007",
        )
        assert [f.key for f in findings] == ["quiet.Exception"]


class TestPrintRule:
    def test_print_in_library_module_flagged(self, tmp_path):
        findings = run(
            tmp_path,
            {
                "repro/core/thing.py": """
                def handle(capture):
                    print("saw", capture)
                """
            },
            "KL008",
        )
        assert len(findings) == 1
        assert findings[0].path == "src/repro/core/thing.py"
        assert findings[0].line == 3
        assert "repro.core.thing" in findings[0].message

    def test_cli_main_and_analysis_exempt(self, tmp_path):
        findings = run(
            tmp_path,
            {
                "repro/cli.py": """
                def main():
                    print("report")
                """,
                "repro/__main__.py": """
                print("entry point")
                """,
                "repro/analysis/cli.py": """
                def report(finding):
                    print(finding)
                """,
            },
            "KL008",
        )
        assert findings == []

    def test_print_in_string_not_flagged(self, tmp_path):
        findings = run(
            tmp_path,
            {
                "repro/obs/report.py": """
                def render():
                    '''Usage::

                        print(render())
                    '''
                    return "print('hello')"
                """
            },
            "KL008",
        )
        assert findings == []

    def test_locally_rebound_print_is_legal(self, tmp_path):
        findings = run(
            tmp_path,
            {
                "repro/sim/thing.py": """
                print = object()

                def use():
                    print()
                """
            },
            "KL008",
        )
        assert findings == []
