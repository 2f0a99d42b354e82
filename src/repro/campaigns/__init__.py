"""Declarative experiment campaigns.

A *campaign* is a declarative description of a grid of scenarios —
registered experiments crossed with a matrix of scale overrides — executed
through the existing sweep/registry machinery with every result
checkpointed into a content-addressed :class:`~repro.store.result_store.
ResultStore`:

* :mod:`repro.campaigns.spec` — :class:`CampaignSpec` (loadable from TOML
  or JSON) and the scenario grid it enumerates;
* :mod:`repro.campaigns.runner` — :class:`CampaignRunner`: cached,
  kill-safe execution (``run``), per-scenario progress (``status``) and
  store hygiene (``clean``);
* :mod:`repro.campaigns.scheduler` — :class:`CampaignScheduler`: the
  execution behind ``run(total_workers=W)`` (default 1), running the
  parameter values of every scenario as tasks in one pool of ``W``
  workers;
* :mod:`repro.campaigns.progress` — the structured progress events the
  scheduler emits at its ``progress`` callback (cache hits, finished
  tasks, finished scenarios), plus the text renderer the CLI consumes
  them with.

A campaign re-run with an identical spec against a warm store is a pure
cache hit, bit-identical to a cold run; a campaign killed mid-grid
resumes exactly where it stopped — at the first unfinished iteration for
experiments that checkpoint per iteration.
"""

from repro.campaigns.completeness import CellCompleteness, cell_completeness
from repro.campaigns.progress import (
    CacheHit,
    EntryEvicted,
    ProgressEvent,
    ScenarioCompleted,
    StoreDegraded,
    TaskCompleted,
    TaskFailed,
    TaskQuarantined,
    TaskRetried,
)
from repro.campaigns.runner import (
    CampaignResult,
    CampaignRunner,
    ScenarioOutcome,
    ScenarioStatus,
)
from repro.campaigns.scheduler import CampaignScheduler
from repro.campaigns.spec import CampaignSpec, Scenario

__all__ = [
    "CacheHit",
    "CampaignResult",
    "CampaignRunner",
    "CampaignScheduler",
    "CampaignSpec",
    "CellCompleteness",
    "EntryEvicted",
    "cell_completeness",
    "ProgressEvent",
    "Scenario",
    "ScenarioCompleted",
    "ScenarioOutcome",
    "ScenarioStatus",
    "StoreDegraded",
    "TaskCompleted",
    "TaskFailed",
    "TaskQuarantined",
    "TaskRetried",
]
