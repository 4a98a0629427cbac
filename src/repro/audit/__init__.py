"""The differential audit (paper §3.2.1, §4.1).

* :mod:`repro.audit.policy` — machine-readable disclosure models of
  each service's privacy policy (fall 2023 wording quoted in §4.1.2);
* :mod:`repro.audit.laws` — the COPPA/CCPA rule engine deciding which
  observed flows raise compliance concerns;
* :mod:`repro.audit.findings` — finding records and severities;
* :mod:`repro.audit.differential` — cross-age, consent-state and
  platform differential analyses;
* :mod:`repro.audit.report` — per-service and corpus audit reports;
* :mod:`repro.audit.contextual` — contextual-integrity judgments of
  flows (``report ci``);
* :mod:`repro.audit.policytext` — privacy-policy text parsing.
"""
