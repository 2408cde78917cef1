"""Content digests pinning the paper campaign's plans, report and exports.

The plan digest hashes every experiment's spec list, in registry order, as
config hashes, so a spec added, dropped, reordered or changed at any scale
shows up here.  One in-process QUICK campaign then pins the report text
above its run manifest (the manifest holds wall times) and the rows of
every result as ``repro paper run --export`` writes them, CSV and JSON.
The digests were recorded before the experiment registry derived its plans
from the render cells, and must hold for every later form of the registry.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.experiments.campaign import PaperCampaign, render_campaign_report
from repro.experiments.config import FULL, QUICK, STANDARD
from repro.reporting.export import results_to_csv, results_to_json


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


#: Scale -> digest of ``{experiment: [config hash, ...]}`` over the plan.
PLAN_DIGESTS = {
    "quick": "f01137be0ae8c175",
    "standard": "99806d5b315a8dab",
    "full": "9d1ded2b417dbfa1",
}

#: The QUICK report text before ``## Campaign manifest``.
QUICK_REPORT_HEAD = "8a9af6b4198d9aaa"

#: Every QUICK result's rows, registry order, through each exporter.
QUICK_ROWS_CSV = "de76a9f1bc4247b9"
QUICK_ROWS_JSON = "4bb8f3b4791304b6"


@pytest.mark.parametrize("scale", [QUICK, STANDARD, FULL], ids=lambda s: s.name)
def test_plan_digest(scale):
    plans = PaperCampaign(scale=scale).plan()
    hashes = {
        experiment: [spec.config_hash() for spec in specs]
        for experiment, specs in plans.items()
    }
    assert _digest(json.dumps(hashes)) == PLAN_DIGESTS[scale.name]


@pytest.fixture(scope="module")
def quick_campaign():
    return PaperCampaign(scale=QUICK, workers=0).run()


def test_quick_report_head(quick_campaign):
    report = render_campaign_report(quick_campaign)
    head = report.split("## Campaign manifest")[0]
    assert _digest(head) == QUICK_REPORT_HEAD


def test_quick_rows(quick_campaign):
    rows = [row for result in quick_campaign.results.values() for row in result.rows]
    assert _digest(results_to_csv(rows)) == QUICK_ROWS_CSV
    assert _digest(results_to_json(rows)) == QUICK_ROWS_JSON
