"""The pinned runs: each entry runs one `fspll` command and pins the SHA-256
of every file the run writes (grad-check writes none: its stdout, kept as the
file `stdout`).

An entry names the command, its base config (configs/<name> or an inline
doc), the JSON edits to it ("section.key" or "section": value) and the
digests. The session fixture `pinned_run` (tests/conftest.py) writes the
edited config under a temporary directory and runs `fspll.cli.main`
in-process, once per session; the test compares the whole output directory.
Acceptance c5-c8 judge the outputs of the same runs `tiny`, `desk`, `noise`
and `sweep`, so each of them runs once for its digests and its gate. The
checkpoints and logs pin training to the last bit, which the reports' six
decimals do not; each meta.json pins the episode hashes and the run plan.
The digests follow NumPy 2.4.6's Generator algorithms and einsum's
summation order. A moved digest is recorded old -> new in CHANGES.md, never
re-valued to pass. Run one entry with `pytest tests/test_pinned_runs.py -k desk`.
"""

import collections
import copy
import hashlib
import json
import pathlib

import pytest

CONFIGS = pathlib.Path(__file__).resolve().parents[1] / "configs"

Run = collections.namedtuple("Run", "id argv base edits digests needs", defaults=(None,))

# 10-way 10-shot r = 2 cells smooth with k = 9 neighbours, next to 5-way and
# r = 0 cells; the checkpoints train with batch-mean SGD over 6 tasks per epoch
GOLDEN = {
    "world": {"seed": 21, "classes": 24, "dim": 6, "sigma": 0.5},
    "train_classes": 12,
    "network": {"hidden_dims": [8], "output_dim": 6},
    "train": {"max_epoch": 3, "tasks_per_epoch": 6, "n_way": 5, "k_support": 4,
              "k_query": 5, "init_seed": 22, "task_seed": 23},
    "rectify": {"iterations": 10, "lambda": 0.5},
    "bench": {"n_way": [5, 10], "k_shot": [10], "r": [0, 2], "rounds": 7,
              "methods": ["fspll", "pn"], "k_query": 6, "eval_seed": 24},
    "sweep": {"axis": "lambda", "values": [0.0, 0.5, 2.0]},
}

# batch-mean steps with a hidden layer, the squared distance and the
# supervised loss
BATCH_MEAN = {
    "world": {"seed": 41, "classes": 20, "dim": 6, "sigma": 0.6},
    "train_classes": 12,
    "network": {"hidden_dims": [10], "output_dim": 5},
    "train": {"max_epoch": 6, "tasks_per_epoch": 9, "n_way": 6, "k_support": 4,
              "k_query": 5, "lr0": 0.05, "init_seed": 42, "task_seed": 43,
              "supervised_loss": True},
    "rectify": {"iterations": 10, "lambda": 0.5, "distance": "squared"},
    "corruption": {"p": 0.5, "r": 2},
}

RUNS = [
    # the gated noise-impact workload (acceptance c7)
    Run("noise", ["bench"], "noise_impact.json", {}, {
        "meta.json": "c5822872f3debc0f6458cc6ecf24ec9e6552e486eec76bc5313f815b3e26abb4",
        "rounds.csv": "f90fb307cd6fe04494232693b618ba1aed64bddbda27efee0140759a525112bc",
        "summary.csv": "f8604b6d679c493904b6895018df8def2f3507549d009047e8fcc66cf0290ea0"}),
    # the gated desk-grid workload (acceptance c6)
    Run("desk", ["bench"], "bench_desk.json", {}, {
        "meta.json": "0ccfd65e2e2d7a73c6f817f21f9e704cfed37653dc2bdccf4dddbb8cce0c5213",
        "rounds.csv": "9f242cce0657c590fe573a8cfc5b4a3ac8fb12fc28fe40ee7cca7b5422d32a67",
        "summary.csv": "3ad09a3a699b7d1123ed15beeef875b184c2e16e75838baed999a1e934832c01"}),
    # 1-shot cells on exact labels: no run smooths, so none needs a k, and
    # every method scores as pn
    Run("desk_k1_exact", ["bench"], "bench_desk.json", {"bench.k_shot": [1], "bench.r": [0]}, {
        "meta.json": "77efddb2b6a18eb20fd4c640d12a846083d176a77441f2d3df8497b083720c63",
        "rounds.csv": "ad208b93a303579cb55c28c2e36fb3d2c884a1bdc80d80ec966884ade3ad58d5",
        "summary.csv": "98b946e94769a80a54a4b134e1b807e3a21a6f32f30c4238582c4b64ef1564b8"}),
    Run("golden_bench", ["bench"], GOLDEN, {}, {
        "meta.json": "b373a6e2bcf19eb4e302e1c49c88710800f2164a80b4b2997d59a0a886e844c3",
        "rounds.csv": "d3f8b906543e578bbc1cf3c28e03a73d604f65ea643ee030032fd45966518fc7",
        "summary.csv": "bb93797cdba5b64826a5d614e54af5466f3c3e304f163abd44af9a7d10dc0b9e"}),
    # the lambda sweep (acceptance c8)
    Run("sweep", ["sweep"], "sweep_lambda.json", {}, {
        "meta.json": "c20842ad24b3a58e00143f46e783d99a27b5bc86311d4bed803f5442d8c15ab2",
        "rounds.csv": "ab4abb987409905a50868ab8076b2548a9cf8cd2bb4997ad3cd8679d8b5e21a1",
        "summary.csv": "ab3f03c15b9711e890f53e6e636da4e8e6a0c6cce6fd749a7aca6b4e24b9f88a"}),
    # no shipped config sweeps k, or retrains per value: the run plan's
    # other two branches
    Run("sweep_k", ["sweep"], "sweep_lambda.json",
        {"sweep.axis": "k", "sweep.values": [1, 2, 4]}, {
            "meta.json": "b2c9a1f754e7992052d37ced768c9cb2ba2ecbbd45716bc489923a8605b1e2b4",
            "rounds.csv": "9da95025298b956d8dd1239aae368102ed77e466f6b28c9b06b21408381934f9",
            "summary.csv": "28869b25f24e0c89ca1507f94c73c0295f829666e318a3658cfa89d3de9d3a1b"}),
    Run("sweep_retrain", ["sweep"], "sweep_lambda.json",
        {"sweep.values": [0.0, 0.5], "sweep.retrain": True, "bench.rounds": 50}, {
            "meta.json": "7e101845098580c3754105fd5ea41ca5ea957502724dd44c901095a1e48fb202",
            "rounds.csv": "726dab48b871ed58796eec5b03ad12da75b89b22c7e81164ff1eaaa96f043198",
            "summary.csv": "f2e3ebdc96bf40429dad11421d45a530c6c60b693f23ea4e6f53347be3a29cad"}),
    Run("golden_sweep", ["sweep"], GOLDEN,
        {"bench.n_way": [10], "bench.r": [2], "bench.rounds": 5, "bench.methods": ["fspll"]}, {
            "meta.json": "75c7edd8629b61c99581bd6f0381010d7fe1aaa3ae9a53da47ce86e0133fd53b",
            "rounds.csv": "e8735df49d2b803f0275d3e2fbd2d8147864c747e6b34d56503548a7bea007c5",
            "summary.csv": "5ecc1f38cf978c269d52a87770e7af3573e732ac6d5c7c727eee5dd1338df518"}),
    # per-task steps on fixed tasks; config.json pins what the config
    # table's defaults write
    Run("tiny", ["train"], "train_tiny.json", {}, {
        "checkpoint.json": "92bf37e31fb37987fb16dab46d6029541d5d0cd4ed3150f1488e72495ca4cca3",
        "config.json": "8fe7790f7168f9705e3a47108aa090cbcbf0118e2635baae462b209f651a6399",
        "log.csv": "b1cd178db9e323802ef2ebf7cfdc7f7836474a755f45599abcbe3a8f1b298643"}),
    # exact labels: the rectification loop would map each task's
    # confidences to themselves, and training runs none
    Run("tiny_exact", ["train"], "train_tiny.json", {"corruption.r": 0}, {
        "checkpoint.json": "2747c65578b8b13a2039a3e8aa2b0bb3d2e1e69c5aba9970892e249ba0a137ae",
        "config.json": "46adfa40c74062efb121b32d5a2e227d5b09044f168d3de22f441e8efe23017a",
        "log.csv": "e4dc1d18684588c25abe520a1c9f80715fc1dfb9387289c67e46e5aff3bff0cd"}),
    # 1-shot exact tasks: no k = shots - 1 = 0 is checked or used
    Run("tiny_exact_k1", ["train"], "train_tiny.json", {"corruption.r": 0, "train.k_support": 1}, {
        "checkpoint.json": "340602429cf0634b454f0cb18cf78a3c081d22207543a7042c57afdb3cce83f3",
        "config.json": "b333d8b6efcee203db5cff7d4c64ef0089a031ed758d2c34f071cd3fbc29ee96",
        "log.csv": "b2f85dc16cb45b12c761fb460eda51d24e3169de10c3547152ad6ae9e67356d2"}),
    # per-task steps on fresh tasks with a hidden layer and the supervised loss
    Run("noise_train", ["train"], "noise_impact.json", {}, {
        "checkpoint.json": "30a3e82c4a2abe0488b34a2e3cf5df497c87811ff7f9ea5d43b53205a85e45a2",
        "config.json": "be6ba81944c4161b7f1e6674a8b40156230eb27e3e27df246bbf0ca7406136ef",
        "log.csv": "a69ae3f9f980492736a8fbeb49ef85fff1236041e91cd1a49c7a775403c63599"}),
    # batch-mean steps over stacks of 4 of an epoch's 20 tasks
    Run("bench_ckpt", ["train"], "train_bench.json", {}, {
        "checkpoint.json": "cb79aa2551f1d26d16d92479391c85ca682a1e81d01dee8f24f638f7a60e97ee",
        "config.json": "3c06b40d1fb8626ab29572bd1296645b01d98013ce787e5b91546c88b223d390",
        "log.csv": "388605c5d318e33ec91c27e65f76f6abb40604d5bd7d876b45b05bcdba357668"}),
    Run("batch_mean_supervised", ["train"], BATCH_MEAN, {}, {
        "checkpoint.json": "eea493affc2372ab4b51bf9f6360a0b61d5de0c9cae11d6bf87b05371a747e11",
        "config.json": "472d6bb6bd43cb1669325d1614b61629312fe7648a4fb62e4e91a0ad0a29038d",
        "log.csv": "69a08e5ae7e70347e8459a8645c232243fe57b68ce2605b1d32db758e09c0dec"}),
    # configs/test_eval.json reads bench_ckpt's checkpoint, relative to itself
    Run("test", ["test"], "test_eval.json", {}, {
        "test_rounds.csv": "d8feec14484cfbc036f1f493f89bab524bcdb6ff0b194279b1591e730b1ab706",
        "test_summary.json": "b0768abfaba4a0bf120d03efa39247e9a582878bfe93210b97b4c51423c8176d"},
        needs="bench_ckpt"),
    Run("grad_check", ["grad-check", "--seed", "7"], None, {}, {
        "stdout": "4d775d0f580139663705c206e7d673936ca5d97a173069a7b58b3c6c764a5783"}),
]


def edited(run):
    doc = copy.deepcopy(run.base) if isinstance(run.base, dict) \
        else json.loads((CONFIGS / run.base).read_text(encoding="utf-8"))
    for key, value in run.edits.items():
        section, _, name = key.rpartition(".")
        (doc[section] if section else doc)[name] = value
    return doc


def digests(out):
    """The SHA-256 of each file under out, by its path relative to out."""
    return {str(path.relative_to(out)): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(out.rglob("*")) if path.is_file()}


@pytest.mark.parametrize("run", RUNS, ids=[run.id for run in RUNS])
def test_pinned_run(pinned_run, run):
    out, _ = pinned_run(run.id)
    assert digests(out) == run.digests


def test_every_shipped_config_is_pinned():
    pinned = {run.base for run in RUNS if isinstance(run.base, str)}
    assert {path.name for path in CONFIGS.glob("*.json")} <= pinned
