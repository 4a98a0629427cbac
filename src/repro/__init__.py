"""DiffAudit reproduction — differential privacy-practice auditing of
general-audience online services for children and adolescents.

Reproduction of *DiffAudit: Auditing Privacy Practices of Online
Services for Children and Adolescents* (Figueira, Trimananda,
Markopoulou, Jordan — IMC 2024).

Quickstart::

    from repro import DiffAudit, CorpusConfig

    result = DiffAudit(CorpusConfig(scale=0.02, services=("tiktok",))).run()
    print(result.audits["tiktok"].summary_lines())

See ``docs/architecture.md`` for the system inventory; the benches
under ``benchmarks/`` regenerate every table and figure of the paper.

The names below are imported from their defining module on first
access, so ``import repro.net.pcap`` (or ``repro --version``) does not
load the whole pipeline.
"""

from importlib import import_module

__version__ = "1.0.0"

# Public name -> defining module.
_EXPORTS = {
    "AgeGroup": "repro.model",
    "FlowCell": "repro.model",
    "Platform": "repro.model",
    "Presence": "repro.model",
    "TraceColumn": "repro.model",
    "TraceKind": "repro.model",
    "ONTOLOGY": "repro.ontology.coppa_ccpa",
    "Level2": "repro.ontology.nodes",
    "Level3": "repro.ontology.nodes",
    "DiffAudit": "repro.pipeline.diffaudit",
    "DiffAuditResult": "repro.pipeline.diffaudit",
    "CorpusConfig": "repro.services.config",
    "ClassificationStore": "repro.datatypes.store",
    "PersistentClassifier": "repro.datatypes.store",
}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module 'repro' has no attribute {name!r}")
    return getattr(import_module(module), name)
