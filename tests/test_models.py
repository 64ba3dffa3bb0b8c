"""Architecture goldens, network plumbing, and head adaptation tests."""

import numpy as np
import pytest

from fusionnet.models import (BUILDERS, Network, adapt_head, build_mvnet,
                              build_vcnn1, build_vcnn2)
from fusionnet.nn.weights import WeightsError


def conv_params(filters, in_channels, size):
    return filters * in_channels * size * size + filters


def fc_params(units, inputs):
    return units * inputs + units


class TestVcnn1Golden:
    def test_per_layer_param_counts(self):
        spec = build_vcnn1(40)
        counts = [c for c in spec.layer_param_counts() if c]
        assert counts == [
            conv_params(64, 30, 3),        # 17344
            conv_params(64, 64, 3),        # 36928
            conv_params(64, 64, 3),        # 36928
            fc_params(2048, 64 * 5 * 5),   # 3278848
            fc_params(40, 2048),           # 81960
        ]
        assert counts == [17344, 36928, 36928, 3278848, 81960]

    def test_total_param_count(self):
        assert build_vcnn1(40).param_count() == 3452008

    def test_output_shape_chain(self):
        spec = build_vcnn1(40)
        assert spec.output_shapes() == [
            (64, 28, 28), (64, 28, 28), (64, 14, 14),
            (64, 12, 12), (64, 12, 12), (64, 10, 10), (64, 5, 5),
            (64, 5, 5), (2048,), (2048,), (40,),
        ]


class TestVcnn2Golden:
    def test_per_layer_param_counts(self):
        spec = build_vcnn2(40)
        entries = spec.param_entries()
        weights = [int(np.prod(s)) for name, s in entries if name.endswith(".w")]
        biases = [int(np.prod(s)) for name, s in entries if name.endswith(".b")]
        combined = [w + b for w, b in zip(weights, biases)]
        assert combined == [620, 5420, 15020, 1830, 16230, 16230, 55298048, 81960]

    def test_total_param_count(self):
        assert build_vcnn2(40).param_count() == 55435358

    def test_spatial_size_preserved_by_padding(self):
        spec = build_vcnn2(40)
        shapes = spec.output_shapes()
        # multi-scale branches concatenate channels at constant resolution
        assert shapes[0] == (60, 30, 30)
        assert shapes[3] == (60, 30, 30)
        assert shapes[6] == (30, 30, 30)


class TestMvnetGolden:
    def test_output_shape_chain(self):
        spec = build_mvnet(10, image_size=64)
        assert spec.output_shapes() == [
            (16, 64, 64), (16, 64, 64), (16, 32, 32),
            (32, 32, 32), (32, 32, 32), (32, 16, 16),
            (64, 16, 16), (64, 16, 16), (64, 8, 8),
            (512,), (512,), (10,),
        ]

    def test_image_size_validation(self):
        with pytest.raises(ValueError):
            build_mvnet(10, image_size=24)
        with pytest.raises(ValueError):
            build_mvnet(10, image_size=36)

    def test_builders_registry(self):
        assert set(BUILDERS) == {"vcnn1", "vcnn2", "mvnet"}
        assert BUILDERS["vcnn1"](5).name == "vcnn1"


class TestNetwork:
    def test_initialize_deterministic(self):
        spec = build_mvnet(4, image_size=32)
        a = Network.initialize(spec, seed=7).arrays()
        b = Network.initialize(spec, seed=7).arrays()
        c = Network.initialize(spec, seed=8).arrays()
        assert set(a) == set(b) == set(c)
        for k in a:
            assert np.array_equal(a[k], b[k])
        assert any(not np.array_equal(a[k], c[k]) for k in a)

    def test_param_set_validated(self):
        spec = build_mvnet(4, image_size=32)
        arrays = Network.initialize(spec, seed=0).arrays()
        missing = dict(arrays)
        missing.pop(next(iter(missing)))
        with pytest.raises(WeightsError):
            Network.from_arrays(spec, missing)
        wrong = dict(arrays)
        first = next(iter(wrong))
        wrong[first] = np.zeros((1, 1), dtype=np.float32)
        with pytest.raises(WeightsError):
            Network.from_arrays(spec, wrong)
        # a weights file may carry more records; a network holds only its own
        extra = {**arrays, "velocity.m": np.zeros(1, dtype=np.float32)}
        params = Network.from_arrays(spec, extra).params
        assert set(params) == set(arrays)
        with pytest.raises(WeightsError, match="not in the spec"):
            Network(spec, {**params, "velocity.m": params[first]})

    def test_forward_batch_shape(self):
        spec = build_vcnn1(6)
        net = Network.initialize(spec, seed=0)
        rng = np.random.default_rng(0)
        x = rng.random((2, 30, 30, 30)).astype(np.float32)
        out = net.forward(x)
        assert out.shape == (2, 6)
        assert out.dtype == np.float32

    def test_freeze_below_marks_parameters(self):
        spec = build_vcnn1(4)
        frozen_spec = adapt_head(spec, Network.initialize(spec, 0).arrays(),
                                 3, seed=1, freeze_below=8)[0]
        net = Network.from_arrays(frozen_spec,
                                  Network.initialize(frozen_spec, 2).arrays())
        for name, p in net.params.items():
            layer_index = int(name.split(".", 1)[0][1:])
            assert p.requires_grad == (layer_index >= 8), name


class TestForwardViews:
    def build_small(self, seed=0):
        spec = build_mvnet(5, image_size=32)
        return Network.initialize(spec, seed=seed)

    def views(self, count, seed=1):
        rng = np.random.default_rng(seed)
        return rng.random((count, 3, 32, 32)).astype(np.float32)

    def test_scores_shape_and_identity(self):
        net = self.build_small()
        v = self.views(6)
        scores = net.forward_views(v, 6)
        assert scores.shape == (1, 5)  # one model's score row

    def test_duplicate_view_is_idempotent(self):
        net = self.build_small()
        v = self.views(1)
        one = net.forward_views(v, 1)
        two = net.forward_views(np.concatenate([v, v]), 2)
        assert np.array_equal(one, two)

    def test_permutation_invariance(self):
        net = self.build_small()
        v = self.views(6)
        base = net.forward_views(v, 6)
        rng = np.random.default_rng(3)
        for _ in range(10):
            perm = rng.permutation(6)
            assert np.array_equal(net.forward_views(v[perm], 6), base)

    def test_models_in_one_call_score_as_alone(self):
        net = self.build_small()
        v = self.views(9)
        both = net.forward_views(v, 3)
        assert both.shape == (3, 5)
        for m in range(3):
            assert np.array_equal(both[m], net.forward_views(v[3 * m:3 * m + 3], 3)[0])

    def test_view_subset_dominance(self):
        """Adding views can only raise each pooled feature, never lower it;
        with a fresh random score layer the clean structural check is that
        the pooled features themselves are monotone."""
        net = self.build_small()
        v = self.views(8)
        pool = net.spec.pool_index()
        import fusionnet.nn.layers as L
        import fusionnet.nn.tensor as T

        def pooled(views):
            y = T.Tensor(views)
            for i, spec in enumerate(net.spec.layers[:pool]):
                y = L.apply_layer(spec, y, net.params, L.layer_path(i, spec),
                                  training=False, rng=None)
            return y.data.max(axis=0)

        assert (pooled(v) >= pooled(v[:4]) - 1e-7).all()

    def test_empty_views_rejected(self):
        with pytest.raises(ValueError):
            self.build_small().forward_views(np.zeros((0, 3, 32, 32), dtype=np.float32), 1)

    @pytest.mark.parametrize("count, group", [(4, 0), (4, -2), (5, 2), (2, 3)])
    def test_bad_group_rejected(self, count, group):
        with pytest.raises(ValueError, match="whole groups"):
            self.build_small().forward_views(self.views(count), group)


class TestClassScores:
    def test_flattens_row_vector(self):
        """One model's class scores come out as a (1, k) row: with a
        single view, forward_views equals the (1, k) batch output."""
        net = Network.initialize(build_mvnet(5, image_size=32), seed=0)
        v = np.random.default_rng(1).random((1, 3, 32, 32)).astype(np.float32)
        row = net.forward(v).data
        assert row.shape == (1, 5)
        scores = net.forward_views(v, 1)
        assert scores.shape == (1, 5)
        assert np.array_equal(scores[0], row[0])


class TestAdaptHead:
    def test_trunk_preserved_head_reinitialized(self):
        spec = build_vcnn1(4)
        arrays = Network.initialize(spec, seed=5).arrays()
        new_spec, new_arrays = adapt_head(spec, arrays, 3, seed=6)
        assert new_spec.class_count == 3
        head = "L10.fully_connected"
        for name, arr in new_arrays.items():
            if name.startswith(head):
                assert arr.shape[0] == 3
            else:
                assert np.array_equal(arr, arrays[name]), name
        # the new head must load into a network without complaint
        Network.from_arrays(new_spec, new_arrays)

    def test_head_seed_deterministic(self):
        spec = build_vcnn1(4)
        arrays = Network.initialize(spec, seed=5).arrays()
        a = adapt_head(spec, arrays, 3, seed=6)[1]
        b = adapt_head(spec, arrays, 3, seed=6)[1]
        c = adapt_head(spec, arrays, 3, seed=7)[1]
        for k in a:
            assert np.array_equal(a[k], b[k])
        head_w = [k for k in a if k.startswith("L10.fully_connected")][0]
        assert not np.array_equal(a[head_w], c[head_w])

    def test_freeze_below_recorded(self):
        spec = build_vcnn1(4)
        arrays = Network.initialize(spec, seed=0).arrays()
        new_spec, _ = adapt_head(spec, arrays, 3, seed=0, freeze_below=8)
        assert new_spec.freeze_below == 8

    def test_mismatched_trunk_rejected(self):
        spec = build_vcnn1(4)
        arrays = Network.initialize(spec, seed=0).arrays()
        short = dict(arrays)
        short.pop("L00.conv2d.w")
        with pytest.raises(WeightsError):
            adapt_head(spec, short, 3, seed=0)
        bad = dict(arrays)
        bad["L00.conv2d.w"] = np.zeros((2, 2), dtype=np.float32)
        with pytest.raises(WeightsError):
            adapt_head(spec, bad, 3, seed=0)
