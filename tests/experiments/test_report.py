"""Tests for the experiment report: ExperimentResult.summary() and the campaign report."""

from __future__ import annotations

import pytest

from repro.analysis.certificates import BoundCertificate
from repro.experiments.campaign import PaperCampaign, render_campaign_report
from repro.experiments.config import ExperimentScale
from repro.experiments.registry import DEFINITIONS
from repro.experiments.runner import ExperimentResult

TINY = ExperimentScale(
    name="tiny",
    n_values=(32,),
    k_fractions=(0.5,),
    seeds=1,
    patterns_per_seed=1,
    max_slots=50_000,
)


@pytest.fixture(scope="module")
def tiny_e8():
    return PaperCampaign(scale=TINY, experiments=["E8"]).run()


class TestPaperClaims:
    def test_every_experiment_has_a_claim(self):
        assert all(definition.paper_claim for definition in DEFINITIONS.values())


class TestCampaignReport:
    def test_subset_report(self, tiny_e8):
        content = render_campaign_report(tiny_e8)
        assert "## E8 — " in content
        assert "Paper claim" in content
        assert "```text" in content

    def test_report_mentions_scale(self, tiny_e8):
        assert "tiny" in render_campaign_report(tiny_e8)

    def test_each_section_is_the_result_summary(self, tiny_e8):
        content = render_campaign_report(tiny_e8)
        summary = tiny_e8.results["E8"].summary()
        # The summary ends with one newline; a blank line separates it from
        # the manifest heading.
        assert summary + "\n## Campaign manifest" in content


class TestSummary:
    def test_section_layout(self):
        result = ExperimentResult(
            experiment="E8",
            title="demo",
            scale="quick",
            paper_claim=DEFINITIONS["E8"].paper_claim,
        )
        result.certificates.append(
            BoundCertificate(claim="claim", holds=True, worst_ratio=1.0, tolerance=2.0)
        )
        result.notes.append("a note")
        result.tables["t"] = "a | b"
        result.figures["f"] = "**"
        assert result.summary() == "\n".join(
            [
                "## E8 — demo",
                "",
                f"**Paper claim.** {DEFINITIONS['E8'].paper_claim}",
                "",
                "**Scale.** `quick`",
                "",
                "**Certificates.**",
                "",
                f"- {result.certificates[0].describe()}",
                "",
                "**Notes.**",
                "",
                "- a note",
                "",
                "### t",
                "",
                "```text",
                "a | b",
                "```",
                "",
                "### f",
                "",
                "```text",
                "**",
                "```",
                "",
            ]
        )

    def test_unregistered_experiment_has_no_claim_line(self):
        text = ExperimentResult(experiment="E0", title="demo", scale="quick").summary()
        assert text == "## E0 — demo\n\n**Scale.** `quick`\n"
