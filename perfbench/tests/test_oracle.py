"""Every correctness check is live, and each failed item counts once."""

import copy
import json

import pytest

import corpus
import run
from corpus import Item, Oracle

SMALL = "toolkit/oclVectorAdd|ocl-native|titan"


@pytest.fixture(scope="module")
def oracle():
    return Oracle.load()


@pytest.fixture(scope="module")
def small_output():
    corpus.clear_caches()
    return corpus.execute(Item(SMALL, "bar"))


def test_vector_tier_matches_the_interp_reference(oracle, small_output):
    assert oracle.judge(Item(SMALL, "bar"), small_output) is None


@pytest.mark.parametrize("field,change", [
    ("sim_time", lambda v: v * (1 + 1e-12)),
    ("stdout", lambda v: v + " "),
    ("breakdown", lambda v: {**v, "kernel": v.get("kernel", 0.0) + 1e-9}),
    ("api_calls", lambda v: v + 1),
    ("kernel_launches", lambda v: v + 1),
    ("transfer_ops", lambda v: v + 1),
    ("transfer_bytes", lambda v: v + 4),
])
def test_a_perturbed_reference_entry_fails(oracle, small_output, field,
                                           change):
    bars = copy.deepcopy(oracle.bars)
    bars[SMALL][field] = change(bars[SMALL][field])
    verdict = Oracle(bars, oracle.golden).judge(Item(SMALL, "bar"),
                                                small_output)
    assert verdict is not None and field in verdict


def test_translation_is_checked_against_golden(oracle):
    item = Item("job:ocl2cuda:toolkit/oclVectorAdd", "job")
    corpus.clear_caches()
    out = corpus.execute(item)
    assert oracle.judge(item, out) is None
    golden = copy.deepcopy(oracle.golden)
    golden[item.key]["device_source"] += "\n"
    assert "golden" in Oracle(oracle.bars, golden).judge(item, out)


def test_table_verdicts_are_checked(oracle):
    t3 = corpus.execute(Item("table3", "table3"))
    t1 = corpus.execute(Item("table1", "table1"))
    assert oracle.judge(Item("table3", "table3"), t3) is None
    assert oracle.judge(Item("table1", "table1"), t1) is None
    wrong3 = copy.deepcopy(t3)
    wrong3["counts"]["Use of PTX"] += 1
    assert oracle.judge(Item("table3", "table3"), wrong3) is not None
    wrong1 = copy.deepcopy(t1)
    wrong1["cells"]["global/static"] = ["O", "O"]
    assert oracle.judge(Item("table1", "table1"), wrong1) is not None


def test_paper_ratios_are_checked():
    ref = corpus.load_reference()
    sims = {k: ref[k]["sim_time"] for check in corpus.RATIO_CHECKS
            for k in check[:2]}
    assert Oracle.ratio_failures(sims) == []
    ft = dict(sims, **{"npb/FT|ocl->cuda|titan":
                       sims["npb/FT|ocl-native|titan"]})
    assert [k for k, _ in Oracle.ratio_failures(ft)] == \
        ["npb/FT|ocl->cuda|titan"]
    cfd = dict(sims, **{"rodinia/cfd|ocl->cuda|titan":
                        sims["rodinia/cfd|ocl-native|titan"]})
    assert [k for k, _ in Oracle.ratio_failures(cfd)] == \
        ["rodinia/cfd|ocl->cuda|titan"]


def test_each_failed_item_counts_exactly_once(oracle, small_output,
                                              monkeypatch):
    good = json.loads(corpus.canonical(small_output))
    failed = dict(good, ok=False, stdout=good["stdout"] + "FAILED\n")
    # wrong stdout AND not ok: still one failure
    mismatch = dict(good, sim_time=good["sim_time"] * 2)
    outputs = {"raises": None, "failed": failed, "mismatch": mismatch,
               "good": good}

    def fake_execute(item):
        if outputs[item.key.split("#")[1]] is None:
            raise RuntimeError("boom")
        return outputs[item.key.split("#")[1]]

    bars = {f"{SMALL}#{k}": good for k in outputs}
    monkeypatch.setattr(corpus, "execute", fake_execute)
    items = [Item(f"{SMALL}#{k}", "bar") for k in outputs]
    result = run.run_pass(items, Oracle(bars, oracle.golden))
    assert len(result.times) == 4
    assert sorted(k.split("#")[1] for k in result.failures) == \
        ["failed", "mismatch", "raises"]
    assert "RuntimeError" in result.failures[f"{SMALL}#raises"]


def test_a_perturbed_reference_fails_the_whole_run(tmp_path, monkeypatch,
                                                   capsys):
    ref = json.loads(corpus.REFERENCE_PATH.read_text(encoding="utf-8"))
    ref["bars"][SMALL]["sim_time"] *= 1.5
    path = tmp_path / "bars.json"
    path.write_text(json.dumps(ref), encoding="utf-8")
    monkeypatch.setattr(corpus, "REFERENCE_PATH", path)
    monkeypatch.setattr(run, "workload_items",
                        lambda name, partition: [Item(SMALL, "bar")])
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    monkeypatch.setattr(run, "pin_to_one_cpu", lambda: None)
    code = run.main(["--workload", "eval-host", "--seed", "3",
                     "--seconds", "0.2", "--trace", "0"])
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert last["correct"] is False
    assert last["failed"] == last["attempted"] >= 1
