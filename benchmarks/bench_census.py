"""§4.2 — destination census (party classes and organizations).

Paper: 320 first-party, 33 first-party ATS, 150 third-party, 485
third-party ATS domains; at least 212 organizations.
"""

from repro.reporting.figures import render_census


def test_destination_census(benchmark, result, save_artifact):
    census = benchmark(lambda r: r.census, result)
    save_artifact("census.txt", render_census(census))

    assert 240 <= census.first_party <= 360  # paper: 320
    assert 20 <= census.first_party_ats <= 45  # paper: 33
    assert 60 <= census.third_party <= 180  # paper: 150
    assert 400 <= census.third_party_ats <= 560  # paper: 485
    assert census.organizations >= 212  # paper: "at least 212 companies"
    assert census.third_party_ats > census.third_party  # ATS dominate
