import re
from dataclasses import fields

import numpy as np
import pytest

from fspll.config import DEFAULTS
from fspll.episodes import (CorruptionSpec, Episode, _choice_rows, corrupt, episode_hash,
                            make_world, sample_episode)

from test_cli import shipped


def test_world_determinism():
    a = make_world(11, classes=5, dim=16, sigma=0.5)
    b = make_world(11, classes=5, dim=16, sigma=0.5)
    np.testing.assert_array_equal(a.means, b.means)


def test_world_shapes():
    world = make_world(1, classes=5, dim=16, sigma=0.5)
    assert world.means.shape == (5, 16)


def test_world_rejects_bad_params():
    with pytest.raises(ValueError):
        make_world(1, classes=5, dim=16, sigma=0.0)
    with pytest.raises(ValueError):
        make_world(1, classes=1, dim=16, sigma=0.5)
    with pytest.raises(ValueError):
        make_world(1, classes=5, dim=0, sigma=0.5)
    # a negative seed fails by key before NumPy sees it
    with pytest.raises(ValueError, match=re.escape("world.seed must be in [0, inf), got -1")):
        make_world(-1, classes=5, dim=16, sigma=0.5)


# the smallest subnormal scale leaves 5 one-dimensional means 3 values to share
@pytest.mark.parametrize("dim, mean_scale", [(1, 5e-324)], ids=["subnormal"])
def test_world_rejects_collided_means(dim, mean_scale):
    with pytest.raises(ValueError, match="class means collided"):
        make_world(1, classes=5, dim=dim, sigma=0.5, mean_scale=mean_scale)


# 0 puts every class mean at the origin, whatever the seed
@pytest.mark.parametrize("mean_scale", [0.0, -1.0], ids=["zero", "negative"])
def test_world_rejects_a_non_positive_mean_scale(mean_scale):
    with pytest.raises(ValueError, match=re.escape(
            f"world.mean_scale must be in (0, 8.988465674311579e+307], got {mean_scale}")):
        make_world(1, classes=5, dim=3, sigma=0.5, mean_scale=mean_scale)


def test_world_config_keys_round_trip():
    # train's config.json and the bench plan record a world by its config keys
    world = make_world(7, classes=6, dim=4, sigma=0.4, mean_scale=1.5)
    again = make_world(**{key: getattr(world, key) for key in DEFAULTS["world"]})
    assert (again.seed, again.classes, again.dim, again.sigma, again.mean_scale) == \
        (world.seed, world.classes, world.dim, world.sigma, world.mean_scale)
    np.testing.assert_array_equal(again.means, world.means)


def test_episode_counts():
    world = make_world(2, classes=10, dim=3, sigma=0.5)
    ep = sample_episode(world, [0, 2, 4, 6, 8], 5, 15, seed=3)
    assert ep.n_support == 25
    assert ep.n_queries == 75
    assert ep.candidates.shape == (5, 25)
    assert (ep.candidates.sum(axis=0) == 1).all()  # clean: one-hot
    # class-balanced: each class is ground truth of exactly k_support samples
    np.testing.assert_array_equal(np.bincount(ep.support_truth), [5] * 5)
    np.testing.assert_array_equal(np.bincount(ep.query_truth), [15] * 5)


def test_episode_degenerate_noise_equals_means():
    world = make_world(2, classes=4, dim=3, sigma=1e-12)
    ep = sample_episode(world, [1, 3], 2, 2, seed=4)
    for i in range(ep.n_support):
        cls = ep.class_ids[ep.support_truth[i]]
        np.testing.assert_allclose(ep.support[:, i], world.means[cls], atol=1e-9)


def test_episode_seeds_differ():
    world = make_world(2, classes=6, dim=3, sigma=0.5)
    a = sample_episode(world, [0, 1], 3, 3, seed=5)
    b = sample_episode(world, [0, 1], 3, 3, seed=6)
    assert not np.array_equal(a.support, b.support)


def test_episode_duplicate_classes_rejected():
    world = make_world(2, classes=6, dim=3, sigma=0.5)
    with pytest.raises(ValueError, match="distinct"):
        sample_episode(world, [0, 0, 1], 2, 2, seed=1)


def test_corrupt_noop_cases():
    world = make_world(3, classes=6, dim=3, sigma=0.5)
    ep = sample_episode(world, [0, 1, 2], 3, 3, seed=7)
    for spec in (CorruptionSpec(0.0, 2), CorruptionSpec(1.0, 0)):
        out = corrupt(ep, spec, seed=8)
        np.testing.assert_array_equal(out.candidates, ep.candidates)


def test_corrupt_full_ambiguity():
    world = make_world(3, classes=6, dim=3, sigma=0.5)
    ep = sample_episode(world, [0, 1, 2], 3, 3, seed=7)
    out = corrupt(ep, CorruptionSpec(1.0, 2), seed=8)
    assert (out.candidates == 1).all()


def test_corrupt_exact_counts():
    world = make_world(3, classes=10, dim=3, sigma=0.5)
    ep = sample_episode(world, [0, 1, 2, 3, 4], 4, 3, seed=9)
    out = corrupt(ep, CorruptionSpec(1.0, 2), seed=10)
    np.testing.assert_array_equal(out.candidates.sum(axis=0), np.full(20, 3))
    # ground truth still a candidate everywhere
    assert (out.candidates[out.support_truth, np.arange(20)] == 1).all()


def test_corrupt_partial_proportion():
    world = make_world(3, classes=10, dim=3, sigma=0.5)
    ep = sample_episode(world, [0, 1, 2, 3], 5, 3, seed=11)  # n_s = 20
    out = corrupt(ep, CorruptionSpec(0.5, 1), seed=12)
    counts = out.candidates.sum(axis=0)
    assert (counts == 2).sum() == 10  # floor(0.5 * 20)
    assert (counts == 1).sum() == 10


@pytest.mark.parametrize("r", [0, 1, 2])
@pytest.mark.parametrize("p", [0.0, 0.1, 0.2, 0.5, 0.99, 1.0])
def test_hits_counts_the_samples_corrupt_changes(p, r):
    # exact, which decides whether a run rectifies, reads the same count
    world = make_world(3, classes=10, dim=3, sigma=0.5)
    spec = CorruptionSpec(p, r)
    for k_support in (1, 2, 3, 5):
        ep = sample_episode(world, [0, 1, 2, 3], k_support, 2, seed=k_support)
        changed = (corrupt(ep, spec, seed=5).candidates != ep.candidates).any(axis=0).sum()
        assert changed == spec.hits(ep.n_support), k_support
        assert spec.exact(ep.n_support) == (changed == 0), k_support


def test_corrupt_class_coverage():
    world = make_world(3, classes=10, dim=3, sigma=0.5)
    ep = sample_episode(world, [5, 6, 7], 4, 2, seed=13)
    out = corrupt(ep, CorruptionSpec(1.0, 1), seed=14)
    assert (out.candidates.sum(axis=1) >= 4).all()  # >= k_support per class row


def test_corrupt_r_too_large_rejected():
    world = make_world(3, classes=6, dim=3, sigma=0.5)
    ep = sample_episode(world, [0, 1, 2], 2, 2, seed=15)
    with pytest.raises(ValueError, match="r="):
        corrupt(ep, CorruptionSpec(1.0, 3), seed=16)


def test_corrupt_determinism_and_hash():
    world = make_world(3, classes=8, dim=4, sigma=0.5)
    a = corrupt(sample_episode(world, [0, 1, 2], 3, 4, seed=17),
                CorruptionSpec(1.0, 1), seed=18)
    b = corrupt(sample_episode(world, [0, 1, 2], 3, 4, seed=17),
                CorruptionSpec(1.0, 1), seed=18)
    assert episode_hash(a) == episode_hash(b)
    c = corrupt(sample_episode(world, [0, 1, 2], 3, 4, seed=17),
                CorruptionSpec(1.0, 1), seed=19)
    assert episode_hash(a) != episode_hash(c)


def _per_sample_candidates(episode, spec, rng):
    # reference for corrupt's stream contract: one rng.choice per hit sample
    Y = episode.candidates.copy()
    n_hit = int(np.floor(spec.p * episode.n_support))
    if n_hit > 0 and spec.r > 0:
        hit = rng.choice(episode.n_support, size=n_hit, replace=False)
        for i in hit:
            extra = rng.choice(episode.n_classes - 1, size=spec.r, replace=False)
            extra[extra >= episode.support_truth[i]] += 1
            Y[extra, i] = 1
    return Y


def _twin_generators(seed, buffered_half):
    twins = np.random.default_rng(seed), np.random.default_rng(seed)
    if buffered_half:
        # an odd number of 32-bit words leaves half of a 64-bit output cached
        for rng in twins:
            rng.integers(0, 2**32, size=3, dtype=np.uint32)
        assert twins[0].bit_generator.state["has_uint32"] == 1
    return twins


@pytest.mark.parametrize("buffered_half", [False, True])
@pytest.mark.parametrize("l", [2, 3, 4, 10, 20])
def test_corrupt_matches_per_sample_choice(l, buffered_half):
    world = make_world(3, classes=20, dim=2, sigma=0.5)
    for seed in range(4):
        ep = sample_episode(world, np.arange(l), 3, 1, seed=seed)
        for r in range(1, l):
            for p in (0.5, 1.0):
                vectorised, looped = _twin_generators([seed, r], buffered_half)
                out = corrupt(ep, CorruptionSpec(p, r), vectorised)
                expected = _per_sample_candidates(ep, CorruptionSpec(p, r), looped)
                case = f"seed={seed} l={l} r={r} p={p}"
                np.testing.assert_array_equal(out.candidates, expected, err_msg=case)
                assert vectorised.bit_generator.state == looped.bit_generator.state, case


@pytest.mark.parametrize("buffered_half", [False, True])
@pytest.mark.parametrize("l", [2, 3, 4, 10, 20])
def test_choice_rows_match_choice_calls_in_order(l, buffered_half):
    # a candidate set is blind to the order of the picks, so the shuffle that
    # choice applies to them is checked here, on the rows themselves; row t
    # of the result comes from generator t
    for seed in range(4):
        for r in range(1, l):
            twins = [_twin_generators([seed, r, t], buffered_half) for t in range(3)]
            rows = _choice_rows([v for v, _ in twins], 7, l - 1, r)
            assert rows.shape == (3, 7, r)
            for t, (vectorised, looped) in enumerate(twins):
                expected = np.stack([looped.choice(l - 1, r, replace=False) for _ in range(7)])
                case = f"seed={seed} l={l} r={r} t={t}"
                np.testing.assert_array_equal(rows[t], expected, err_msg=case)
                assert vectorised.bit_generator.state == looped.bit_generator.state, case


@pytest.mark.parametrize("r", [1, 2, 200, 201, 5000])
@pytest.mark.parametrize("pop", [10000, 10001], ids=["replay", "fallback"])
def test_choice_rows_at_numpys_population_threshold(pop, r):
    # choice keeps Floyd's sampling up to pop = 10000, which _choice_rows
    # replays; above it, r > pop // 50 switches choice to a tail shuffle, and
    # _choice_rows calls choice itself
    twins = [_twin_generators([pop, r, t], False) for t in range(2)]
    rows = _choice_rows([v for v, _ in twins], 3, pop, r)
    assert rows.shape == (2, 3, r)
    for t, (vectorised, looped) in enumerate(twins):
        expected = np.stack([looped.choice(pop, r, replace=False) for _ in range(3)])
        np.testing.assert_array_equal(rows[t], expected, err_msg=f"t={t}")
        assert vectorised.bit_generator.state == looped.bit_generator.state, f"t={t}"


def test_choice_rows_rejection_falls_back_to_the_loop():
    # the cached word 0 meets bound b = 9 (pop = 9, r = 1): (0 * 9) mod 2**32 = 0
    # is below (2**32 - 9) mod 9 = 4, so choice rejects it and draws again;
    # only the middle generator of the stack falls back
    state = np.random.PCG64(21).state
    state["has_uint32"], state["uinteger"] = 1, 0
    twins = [_twin_generators([22, t], False) for t in range(3)]
    for rng in twins[1]:
        rng.bit_generator.state = state
    rows = _choice_rows([v for v, _ in twins], 4, 9, 1)
    for t, (vectorised, looped) in enumerate(twins):
        expected = np.stack([looped.choice(9, 1, replace=False) for _ in range(4)])
        np.testing.assert_array_equal(rows[t], expected, err_msg=f"t={t}")
        assert vectorised.bit_generator.state == looped.bit_generator.state


@pytest.mark.parametrize("p, r", [(1.0, 0), (0.5, 1), (1.0, 2), (1.0, 4)])
def test_stacked_draws_match_episodes_one_at_a_time(p, r):
    # one generator per episode: the stack holds each episode as drawn on its
    # own, and leaves each generator where the single draw leaves it
    world = make_world(3, classes=12, dim=3, sigma=0.5)
    rngs = [np.random.default_rng([40, t]) for t in range(5)]
    class_ids = np.stack([rng.choice(12, size=5, replace=False) for rng in rngs])
    stack = corrupt(sample_episode(world, class_ids, 4, 3, rngs), CorruptionSpec(p, r), rngs)
    assert stack.support.shape == (5, 3, 20) and stack.candidates.shape == (5, 5, 20)
    for t in range(5):
        rng = np.random.default_rng([40, t])
        ids = rng.choice(12, size=5, replace=False)
        single = corrupt(sample_episode(world, ids, 4, 3, rng), CorruptionSpec(p, r), rng)
        for field in fields(Episode):
            got, want = getattr(stack[t], field.name), getattr(single, field.name)
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want, err_msg=f"t={t} {field.name}")
        assert rngs[t].bit_generator.state == rng.bit_generator.state
    assert episode_hash(stack) == [episode_hash(stack[t]) for t in range(5)]


def test_stack_needs_one_seed_per_episode():
    world = make_world(3, classes=8, dim=3, sigma=0.5)
    with pytest.raises(ValueError, match="2 episodes need one seed each, got 3"):
        sample_episode(world, [[0, 1], [2, 3]], 2, 2, [1, 2, 3])
    stack = sample_episode(world, [[0, 1, 2], [3, 4, 5]], 2, 2, [1, 2])
    with pytest.raises(ValueError, match="2 episodes need one seed each, got 1"):
        corrupt(stack, CorruptionSpec(1.0, 1), [3])


def test_episode_indexing_slices_the_stack():
    world = make_world(3, classes=8, dim=3, sigma=0.5)
    stack = sample_episode(world, [[0, 1, 2], [3, 4, 5], [6, 7, 0]], 2, 2, [1, 2, 3])
    assert stack[1:].support.shape == (2, 3, 6)
    single = stack[2]
    assert (single.n_classes, single.n_support, single.n_queries) == (3, 6, 6)
    assert episode_hash(single[None]) == [episode_hash(single)]


@pytest.mark.parametrize("index, digest", enumerate(["b5824c459b05798e", "37ecd95eb1ee4311",
                                                     "590731a1664c9376"]))
def test_training_task_stream_is_pinned(index, digest):
    # the first training task of the checkpoint that configs/bench_desk.json
    # trains under its index-th r; the digests pin the RNG stream of class
    # choice, feature draws and corruption
    cfg = shipped("bench_desk.json")
    train, bench = cfg["train"], cfg["bench"]
    world = make_world(**cfg["world"])
    rng = np.random.default_rng([train["task_seed"], 0, 0])
    class_ids = rng.choice(np.arange(cfg["train_classes"]), size=train["n_way"], replace=False)
    episode = sample_episode(world, class_ids, train["k_support"], train["k_query"], rng)
    corruption = CorruptionSpec(bench["p"], bench["r"][index])
    assert episode_hash(corrupt(episode, corruption, rng)) == digest


def test_corruption_spec_validation():
    with pytest.raises(ValueError):
        CorruptionSpec(1.5, 1)
    with pytest.raises(ValueError):
        CorruptionSpec(0.5, -1)
    with pytest.raises(ValueError, match=re.escape("corruption.p must be in [0, 1], got nan")):
        CorruptionSpec(p=float("nan"), r=1)
