"""Crash-safe campaign orchestration: study matrices as one artifact.

The paper's evaluation is a *matrix* — studies x workloads x sampling
budgets, each cell one seeded exploration.  This package runs such a
matrix as a single declarative campaign with the robustness guarantees
the rest of the repo established for individual runs:

==============  ======================================================
module          contents
==============  ======================================================
``spec``        :class:`CampaignSpec` + TOML parsing/validation
``matrix``      :class:`CampaignCell` and deterministic expansion
``runner``      the driver: each cell runs as a job on the serve
                layer's lifecycle engine (watchdog, retry, quarantine),
                recorded in ``MANIFEST.json`` by the same checksummed,
                atomically rewritten ledger the service keeps
``report``      deterministic ``report.json`` + accounting + markdown
==============  ======================================================

The headline guarantee: ``kill -9`` the driver at any instant, run
``repro campaign resume``, and the final aggregated ``report.json`` is
byte-identical to an uninterrupted run — asserted continuously by CI's
chaos smoke.
"""

from .matrix import CampaignCell, expand_matrix
from .report import (
    REPORT_KIND,
    REPORT_SCHEMA,
    build_report,
    build_resources,
    load_report,
    render_markdown,
    write_reports,
)
from .runner import (
    CampaignError,
    CampaignResult,
    CampaignRunner,
    campaign_status,
    manifest_path,
    resume_campaign,
    run_campaign,
)
from .spec import (
    CampaignSpec,
    CampaignSpecError,
    load_campaign_spec,
    parse_campaign_spec,
)

__all__ = [
    "REPORT_KIND",
    "REPORT_SCHEMA",
    "CampaignCell",
    "CampaignError",
    "CampaignResult",
    "CampaignRunner",
    "CampaignSpec",
    "CampaignSpecError",
    "build_report",
    "build_resources",
    "campaign_status",
    "expand_matrix",
    "load_campaign_spec",
    "load_report",
    "manifest_path",
    "parse_campaign_spec",
    "render_markdown",
    "resume_campaign",
    "run_campaign",
    "write_reports",
]
