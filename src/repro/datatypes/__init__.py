"""Data type extraction and classification (paper §3.2.2).

* :mod:`repro.datatypes.extract` — pull raw data types (key strings)
  out of request payloads, query strings and cookies;
* :mod:`repro.datatypes.base` — the classifier interface;
* :mod:`repro.datatypes.cache` — a memoizing layer over any
  classifier, so repeated keys are classified once per run;
* :mod:`repro.datatypes.gpt4` — the GPT-4 Chat Completions substitute:
  an offline knowledge-based classifier with the same API shape
  (prompt, temperature, confidence, explanation);
* :mod:`repro.datatypes.majority` — the majority-vote ensemble over
  temperature models (Majority-Max / Majority-Avg, Table 3);
* :mod:`repro.datatypes.tfidf` / :mod:`repro.datatypes.bertsim` /
  :mod:`repro.datatypes.zeroshot` / :mod:`repro.datatypes.fewshot` —
  the alternative classifiers the paper compared against (PolyFuzz
  TF-IDF / BERT, bart-large-mnli zero-shot, SetFit few-shot);
* :mod:`repro.datatypes.validation` — the manually-labeled-sample
  validation harness that regenerates Table 3.
"""
