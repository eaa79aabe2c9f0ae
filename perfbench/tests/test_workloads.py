"""Workload membership and the seeded item order."""

import json

import corpus
import run


def partition():
    return json.loads(corpus.PARTITION_PATH.read_text(encoding="utf-8"))


def test_workloads_split_the_bars_and_hold_the_ratio_apps():
    part = partition()
    host = run.workload_items("eval-host", part)
    kernel = run.workload_items("eval-kernel", part)
    bars = corpus.distinct_bars()
    assert len(bars) == 230
    assert sorted(i.key for i in host + kernel) == sorted(i.key for i in bars)
    assert {i.app for i in kernel} == set(
        part["workloads"]["eval-kernel"]["kernel_share"])
    keys = {i.key for i in host} | {i.key for i in kernel}
    assert {k for check in corpus.RATIO_CHECKS for k in check[:2]} <= keys
    translate = run.workload_items("translate", part)
    jobs = [i for i in translate if i.kind == "job"]
    assert len(jobs) == 93
    assert sum(":cuda2ocl:" in i.key for i in jobs) == 39
    assert [i.kind for i in translate[-2:]] == ["table3", "table1"]


def test_order_is_seeded_and_keeps_each_apps_figure_order():
    items = run.workload_items("eval-kernel", partition())
    a, b, c = (run.ordered(items, s) for s in (1, 1, 2))
    assert a == b and a != c
    assert sorted(i.key for i in a) == sorted(i.key for i in items)
    figure_order = [i.key for i in items]
    for order in (a, c):
        apps = [i.app for i in order]
        # each app's items are contiguous and in figure order
        assert all(apps.index(app) + apps.count(app) - 1 ==
                   len(apps) - 1 - apps[::-1].index(app) for app in apps)
        for app in set(apps):
            mine = [i.key for i in order if i.app == app]
            assert mine == [k for k in figure_order
                            if k.split("|", 1)[0] == app]
