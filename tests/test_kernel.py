"""Kernel catalog: taxonomy content, merge behavior, self-consistency."""

from __future__ import annotations

import pytest

from helpers import error_codes, load_source, ontology_content

from okc.checks import validate
from okc.frontend import parse
from okc.kernel import kernel_ontology, merge_with_kernel
from okc.model import ConceptDecl, SourceText
from okc.reasoner import compute_closure, direct_supers


@pytest.fixture(scope="module")
def closure():
    return compute_closure(kernel_ontology())


@pytest.mark.parametrize("ancestor,descendant", [
    ("AC", "Reasoning"),          # reasonings are actions
    ("Content", "Data"),          # data are contents
    ("Patient", "Data"),
    ("ED", "Patient"),
    ("AC", "Communication"),      # via Interaction
    ("Interaction", "Communication"),
    ("PD", "AC"),
    ("ED", "Content"),
    ("Proposition", "Model"),
    ("Proposition", "Hypothesis"),
    ("Message", "Complaint"),
    ("Content", "Result"),
    ("IdaConcept", "Subject"),
])
def test_kernel_subsumptions(closure, ancestor, descendant):
    assert closure.subsumes(ancestor, descendant)


def test_kernel_validates_clean():
    assert validate(kernel_ontology()) == []


def test_kernel_is_cached_and_shared():
    assert kernel_ontology() is kernel_ontology()


def test_kernel_taxonomy_is_dag_with_single_root(closure):
    kernel = kernel_ontology()
    for name, decl in kernel.concepts.items():
        if name == "PT":
            assert decl.parents == ()
        else:
            assert direct_supers(decl), f"{name} has no parent"
            assert closure.subsumes("PT", name)


def test_kernel_particularization_signatures_narrow(closure):
    kernel = kernel_ontology()
    for rel in kernel.relations.values():
        if rel.particularizes is None:
            continue
        parent = kernel.relations[rel.particularizes]
        for child_union, parent_union in zip(rel.signature, parent.signature):
            for member in child_union:
                assert any(closure.subsumes(p, member) for p in parent_union), (
                    f"{rel.name} position {member} does not narrow {parent_union}")


def test_merge_user_reasoning_specialization():
    # Transitive chain checked by hand: Calibrating -> Reasoning -> AC.
    onto, diags = merge_with_kernel([ConceptDecl("Calibrating", ("Reasoning",))])
    assert diags == []
    assert compute_closure(onto).subsumes("AC", "Calibrating")


def test_merge_kernel_redefinition_is_rejected():
    onto, diags = merge_with_kernel([ConceptDecl("Reasoning", ("STV",))])
    assert onto is None
    assert error_codes(diags) == ["E2"]


def test_merge_empty_input_is_identity():
    onto, diags = merge_with_kernel([])
    assert diags == []
    assert ontology_content(onto) == ontology_content(kernel_ontology())


def test_merged_declarations_keep_their_lines():
    """A parsed declaration keeps its line through the merge, and the
    kernel's keep line 0, which marks them as the kernel's."""
    onto, diags = load_source("\nconcept Calibrating specializes Reasoning\n")
    assert diags == []
    assert onto.concepts["Calibrating"].line == 2
    assert onto.concepts["Reasoning"].line == 0
    assert onto.relations["PC"].line == 0


def test_kernel_annotations():
    kernel = kernel_ontology()
    for name in ("PT", "ED", "PD", "AC"):
        assert kernel.annotation_value(name, "rigidity") == "rigid"
    for name in ("Patient", "Data", "Result"):
        assert kernel.annotation_value(name, "rigidity") == "anti-rigid"
        assert kernel.annotation_value(name, "dependence") == "dependent"


def test_agentive_is_a_union_not_a_concept():
    kernel = kernel_ontology()
    assert "Agentive" not in kernel.concepts
    assert kernel.relations["isAgentOf"].signature[0] == ("APO", "ASO")


def test_reparsing_own_kernel_listing_is_identity():
    from okc.frontend import render
    text = render(kernel_ontology())
    decls, parse_diags = parse(text, "<kernel>")
    assert not parse_diags
    onto, diags = merge_with_kernel(decls, SourceText("<kernel>", text))
    assert diags == []
    assert ontology_content(onto) == ontology_content(kernel_ontology())
