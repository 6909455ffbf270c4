"""Experiment harness reproducing the paper's evaluation (§4).

- :mod:`repro.experiments.scenario` — one fully seeded scenario
  (topology + member set + protocol parameters),
- :mod:`repro.experiments.runner` — builds both trees (SMRP and the SPF
  baseline), applies the worst-case failure per member, and measures the
  paper's metrics,
- :mod:`repro.experiments.sweeps` — many-scenario parameter sweeps with
  95% confidence intervals,
- :mod:`repro.experiments.exec` — declarative :class:`ExperimentSpec`,
  serial/process-parallel executors, and the substrate cache,
- :mod:`repro.experiments.fig7` … :mod:`repro.experiments.fig10` — one
  driver per figure in the paper,
- :mod:`repro.experiments.tables` — plain-text rendering of the series,
- :mod:`repro.experiments.report` — CSV/JSON/Markdown export of results.

The harness entry points are the verbs of a session from the stable
facade :mod:`repro.api` (``with open_session() as session:
session.run_scenario(...)``); this package re-exports nothing itself.
"""
