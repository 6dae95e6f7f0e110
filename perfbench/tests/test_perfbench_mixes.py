"""Request mixes: composition, spacing and first-seen walks."""

import itertools
import math

import queries


def test_apportion_keeps_the_total_and_the_skew():
    counts = queries.apportion([1.0 / rank for rank in range(1, 15)], 90)
    assert sum(counts) == 90
    assert counts == sorted(counts, reverse=True)
    assert counts[0] == 28 and counts[8] == 3


def test_smooth_cycle_spreads_every_kind_evenly():
    counts = [28, 9, 3, 10]
    cycle = queries.smooth_cycle(counts)
    assert [cycle.count(kind) for kind in range(len(counts))] == counts
    for kind, count in enumerate(counts):
        positions = [i for i, k in enumerate(cycle) if k == kind]
        gaps = [b - a for a, b in zip(positions, positions[1:] + [positions[0] + len(cycle)])]
        assert max(gaps) <= 2 * math.ceil(len(cycle) / count)


def test_varied_walk_sends_each_instance_once_then_ends():
    pool = [("Q3", (f"http://c/{i}",)) for i in range(50)]
    texts = [request.text for request in queries.varied_mix(pool, 3)]
    assert len(texts) == 50 and len(set(texts)) == 50
    other = [request.text for request in itertools.islice(queries.varied_mix(pool, 4), 50)]
    assert other != texts and sorted(other) == sorted(texts)


def test_generalized_template_projects_every_slot():
    template = queries.TEMPLATES_BY_NAME["Q7"]
    text = template.generalized()
    for slot, _ in template.slots:
        assert f"?slot_{slot}" in text
    assert "{" + "cls}" not in template.text({"cls": "http://c", "course_cls": "http://d", "teacher": "http://e"})
