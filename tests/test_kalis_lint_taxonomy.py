"""Cross-check the derived knowledge flow against the Figure 3 taxonomy.

The static analyzer derives a writer/reader map of knowgget labels from
the AST (the flow KL101 and KL102 judge); the taxonomy package declares,
at runtime, which modules cover which attacks and which knowggets enable
them.  These two views were written independently — this module asserts
they agree.
"""

from pathlib import Path

import pytest

from repro.analysis.knowflow import derive_knowflow
from repro.analysis.project import Project
from repro.core.modules.registry import module_class
from repro.taxonomy.modules_map import (
    MODULES_FOR_ATTACK,
    feature_knowledge,
)

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def flow():
    """The statically-derived knowledge flow over the real tree."""
    project = Project.load([ROOT / "src" / "repro"], root=ROOT)
    return derive_knowflow(project)


ALL_MODULES = sorted({m for ms in MODULES_FOR_ATTACK.values() for m in ms})

#: A-priori static knowggets: supplied by deployment config via
#: ``kb.put_static`` (paper §IV-B3), never written by a sensing module.
#: Its Requirement carries a ``default=``, so KL101 accepts it unwritten.
A_PRIORI_LABELS = frozenset({"IntegrityProtection"})


class TestRequirementLabelsMatchRuntime:
    @pytest.mark.parametrize("name", ALL_MODULES)
    def test_static_labels_equal_runtime_requirements(self, flow, name):
        """AST-derived Requirement labels == the class's live REQUIREMENTS."""
        runtime = {r.label for r in module_class(name).REQUIREMENTS}
        static = flow.requirement_labels.get(name, set())
        assert static == runtime

    @pytest.mark.parametrize("name", ALL_MODULES)
    def test_every_requirement_label_is_producible(self, flow, name):
        """No taxonomy-mapped module may depend on an unwritable knowgget."""
        read = {site.pattern for site in flow.reads}
        for requirement in module_class(name).REQUIREMENTS:
            assert ("exact", requirement.label) in read, requirement.label
            assert (
                flow.written(requirement.label)
                or requirement.label in A_PRIORI_LABELS
            ), requirement.label


class TestFeatureKnowledgeLabels:
    @pytest.mark.parametrize("attack", sorted(MODULES_FOR_ATTACK))
    @pytest.mark.parametrize(
        "feature",
        ["single_hop", "multi_hop", "static", "mobile", "integrity_protected"],
    )
    def test_feature_labels_are_producible(self, flow, attack, feature):
        """Every Figure 3 feature maps to a label some producer can write."""
        label, _value = feature_knowledge(attack, feature)
        assert flow.written(label) or label in A_PRIORI_LABELS, label

    def test_medium_prefix_is_a_real_producer_prefix(self, flow):
        """The Multihop.<medium> family comes from an f-string producer."""
        assert any(
            kind == "prefix" and value.startswith("Multihop.")
            for kind, value in (site.pattern for site in flow.writes)
        )


class TestFlowShape:
    def test_flow_has_both_sides(self, flow):
        assert flow.writes
        assert flow.reads
        assert flow.requirement_labels

    def test_requirement_classes_are_registered_modules(self, flow):
        """Every class the AST saw declaring Requirements resolves live."""
        for class_name in flow.requirement_labels:
            module_class(class_name)  # KeyError would fail the test
