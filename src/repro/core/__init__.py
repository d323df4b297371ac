"""Public API: build Java VMs, run migration experiments, pick engines.

Typical use::

    from repro.core import MigrationExperiment

    result = MigrationExperiment(workload="derby", engine="javmm").run()
    print(result.report.summary())

- :func:`build_java_vm` — assemble a guest (domain, kernel, LKM, JVM,
  TI agent, analyzer) running one of the registered workloads.
- :class:`MigrationExperiment` — warm up, migrate, cool down, report;
  the one run description, plain or supervised (``supervision=``).
- :func:`choose_engine` — the Section 6 "intelligent framework" policy.
- :class:`MigrationSupervisor` — the migrate phase of every run: one
  attempt for a plain run; for a supervised one, retry an aborted
  migration with backoff, degrading ``javmm`` → ``assisted`` → ``xen``.
"""

from repro.core.api import migrate, migrate_full
from repro.core.auto import ObservedProfile, choose_engine_live, profile_vm
from repro.core.builders import JavaVM, build_java_vm, make_migrator
from repro.core.evacuation import EvacuationReport, HostEvacuation, VMPlan
from repro.core.experiment import ExperimentResult, MigrationExperiment
from repro.core.policy import PolicyDecision, choose_engine
from repro.core.supervisor import (
    AttemptRecord,
    MigrationSupervisor,
    SupervisionResult,
    supervised_migrate,
)

__all__ = [
    "AttemptRecord",
    "EvacuationReport",
    "ExperimentResult",
    "HostEvacuation",
    "JavaVM",
    "MigrationExperiment",
    "MigrationSupervisor",
    "ObservedProfile",
    "PolicyDecision",
    "SupervisionResult",
    "VMPlan",
    "build_java_vm",
    "choose_engine",
    "choose_engine_live",
    "make_migrator",
    "migrate",
    "migrate_full",
    "profile_vm",
    "supervised_migrate",
]
