import numpy as np
import pytest

from fspll.episodes import (CorruptionSpec, DatasetFormatError, FeaturePool,
                            _choice_rows, corrupt, episode_hash, load_feature_dataset,
                            make_world, sample_episode, save_feature_dataset,
                            world_from_manifest, world_to_manifest)


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


def test_world_manifest_round_trip():
    world = make_world(7, classes=6, dim=4, sigma=0.4, mean_scale=1.5)
    again = world_from_manifest(world_to_manifest(world))
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
    # choice applies to them is checked here, on the rows themselves
    for seed in range(4):
        for r in range(1, l):
            vectorised, looped = _twin_generators([seed, r], buffered_half)
            rows = _choice_rows(vectorised, 7, l - 1, r)
            expected = np.stack([looped.choice(l - 1, r, replace=False) for _ in range(7)])
            case = f"seed={seed} l={l} r={r}"
            np.testing.assert_array_equal(rows, expected, err_msg=case)
            assert vectorised.bit_generator.state == looped.bit_generator.state, case


def test_choice_rows_rejection_falls_back_to_the_loop():
    # the cached word 0 meets bound b = 9 (pop = 9, r = 1): (0 * 9) mod 2**32 = 0
    # is below (2**32 - 9) mod 9 = 4, so choice rejects it and draws again
    state = np.random.PCG64(21).state
    state["has_uint32"], state["uinteger"] = 1, 0
    vectorised, looped = np.random.default_rng(), np.random.default_rng()
    vectorised.bit_generator.state = looped.bit_generator.state = state
    rows = _choice_rows(vectorised, 4, 9, 1)
    expected = np.stack([looped.choice(9, 1, replace=False) for _ in range(4)])
    np.testing.assert_array_equal(rows, expected)
    assert vectorised.bit_generator.state == looped.bit_generator.state


@pytest.mark.parametrize("r, digest", [(0, "b5824c459b05798e"), (1, "37ecd95eb1ee4311"),
                                       (2, "590731a1664c9376")])
def test_training_task_stream_is_pinned(r, digest):
    # the first training task of configs/bench_desk.json; the digests pin the
    # RNG stream of class choice, feature draws and corruption
    world = make_world(105, 50, 8, 0.3)
    rng = np.random.default_rng([107, 0, 0])
    class_ids = rng.choice(np.arange(30), size=10, replace=False)
    episode = sample_episode(world, class_ids, 5, 10, rng)
    assert episode_hash(corrupt(episode, CorruptionSpec(1.0, r), rng)) == digest


def test_corruption_spec_validation():
    with pytest.raises(ValueError):
        CorruptionSpec(1.5, 1)
    with pytest.raises(ValueError):
        CorruptionSpec(0.5, -1)


# -- feature dataset files ------------------------------------------------------

def test_load_small_dataset(tmp_path):
    path = tmp_path / "pool.csv"
    path.write_text("class,f0,f1,f2\n0,1.0,2.0,3.0\n1,-1.0,0.5,0.25\n")
    pool = load_feature_dataset(path)
    assert pool.dim == 3
    assert pool.classes == [0, 1]
    assert pool.n_records == 2
    np.testing.assert_array_equal(pool.features_by_class[0], [[1.0], [2.0], [3.0]])


def test_load_ragged_row_names_line(tmp_path):
    path = tmp_path / "pool.csv"
    path.write_text("class,f0,f1\n0,1.0,2.0\n1,3.0\n")
    with pytest.raises(DatasetFormatError, match="line 3"):
        load_feature_dataset(path)


def test_load_empty_file(tmp_path):
    path = tmp_path / "pool.csv"
    path.write_text("")
    with pytest.raises(DatasetFormatError, match="empty"):
        load_feature_dataset(path)


def test_load_header_only(tmp_path):
    path = tmp_path / "pool.csv"
    path.write_text("class,f0\n")
    with pytest.raises(DatasetFormatError, match="no records"):
        load_feature_dataset(path)


def test_load_bad_class_column(tmp_path):
    path = tmp_path / "pool.csv"
    path.write_text("label,f0\n0,1.0\n")
    with pytest.raises(DatasetFormatError, match="class"):
        load_feature_dataset(path)


def test_load_non_integer_class(tmp_path):
    path = tmp_path / "pool.csv"
    path.write_text("class,f0\nxyz,1.0\n")
    with pytest.raises(DatasetFormatError, match="line 2"):
        load_feature_dataset(path)


@pytest.mark.parametrize("value", ["abc", "nan", "inf", "-inf"])
def test_load_non_numeric_feature(tmp_path, value):
    path = tmp_path / "pool.csv"
    path.write_text(f"class,f0\n0,{value}\n")
    with pytest.raises(DatasetFormatError, match="line 2"):
        load_feature_dataset(path)


def test_dataset_round_trip(tmp_path):
    rng = np.random.default_rng(20)
    pool = FeaturePool(4, {
        0: rng.uniform(-2, 2, (4, 3)),
        5: rng.uniform(-2, 2, (4, 2)),
    })
    path = tmp_path / "pool.csv"
    save_feature_dataset(pool, path)
    loaded = load_feature_dataset(path)
    assert loaded.dim == pool.dim
    assert loaded.classes == pool.classes
    for cls in pool.classes:
        np.testing.assert_array_equal(loaded.features_by_class[cls],
                                      pool.features_by_class[cls])
