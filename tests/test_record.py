"""The package's frozen record classes behave as frozen dataclasses did."""

import copy
import pickle

import numpy as np
import pytest

from normdescent import (
    AdamConfig,
    BlockMax,
    BlockPartition,
    Constant,
    CoshProblem,
    Euclidean,
    GridConfig,
    Max,
    One,
    SkewMatrix,
    WeightedDiag,
)
from normdescent._record import record
from normdescent.analysis import BlockReport, SmoothnessReport
from normdescent.optimizers import InvSqrt, RateCheck, Trace


class TestEqualityAndHash:
    def test_equal_and_hashed_by_fields(self):
        assert WeightedDiag((1, 2)) == WeightedDiag([1.0, 2.0])
        assert hash(WeightedDiag((1, 2))) == hash(WeightedDiag((1.0, 2.0)))
        assert WeightedDiag((1.0, 2.0)) != WeightedDiag((2.0, 1.0))
        assert Constant(0.5) == Constant(alpha=0.5) and Constant(0.5) != Constant(0.25)
        kinds = {Max(), Max(), BlockMax(BlockPartition(((0,), (1,)))), BlockMax(BlockPartition([[0], [1]]))}
        assert len(kinds) == 2

    def test_no_equality_across_classes(self):
        assert Euclidean() != Max()
        assert Max() != One() and One() != Euclidean()
        assert InvSqrt() != Euclidean()
        assert Max() != () and Constant(1.0) != 1.0

    def test_copies_and_pickles_are_equal(self):
        cfg = AdamConfig(0.1, variant="shuffled", blocks=BlockPartition([[0, 1], [2]]))
        for clone in (copy.copy(cfg), copy.deepcopy(cfg), pickle.loads(pickle.dumps(cfg))):
            assert clone == cfg and hash(clone) == hash(cfg)
        assert pickle.loads(pickle.dumps(cfg.blocks)).index == cfg.blocks.index

    def test_array_fields_make_a_record_unhashable(self):
        trace = Trace(np.zeros(2), np.zeros(2), None, np.zeros(3))
        with pytest.raises(TypeError):
            hash(trace)


class TestRepr:
    def test_text(self):
        assert repr(Euclidean()) == "Euclidean()"
        assert repr(WeightedDiag((1, 2))) == "WeightedDiag(weights=(1.0, 2.0))"
        assert repr(BlockMax(BlockPartition([[0, 2], [1]]))) == (
            "BlockMax(partition=BlockPartition(blocks=((0, 2), (1,))))"
        )
        assert repr(AdamConfig(0.1)) == (
            "AdamConfig(step=0.1, beta1=0.9, beta2=0.999, epsilon=1e-08, variant='standard', blocks=None)"
        )
        assert repr(RateCheck(0.5, kind=Max())) == (
            "RateCheck(smooth_slack=0.5, pl_slack=None, kelner_slack=None, kind=Max(), tol=1e-09)"
        )
        assert repr(BlockReport(0.5, 2.0, 1.0, (1.0,))) == (
            "BlockReport(rho_block=0.5, bound=2.0, sampled_lower=1.0, block_lambda_max=(1.0,))"
        )


class TestFrozen:
    @pytest.mark.parametrize("obj, name", [
        (Max(), "x"),
        (Constant(1.0), "alpha"),
        (WeightedDiag((1.0,)), "weights"),
        (BlockPartition(((0,),)), "index"),
        (CoshProblem(2), "dim"),
    ])
    def test_assigning_or_deleting_raises(self, obj, name):
        with pytest.raises(AttributeError):
            setattr(obj, name, 1)
        with pytest.raises(AttributeError):
            delattr(obj, name)


class TestConstruction:
    def test_defaults(self):
        cfg = AdamConfig(1e-3)
        assert (cfg.beta1, cfg.beta2, cfg.epsilon, cfg.variant, cfg.blocks) == (
            0.9, 0.999, 1e-8, "standard", None)
        assert AdamConfig(1e-3, variant="averaged").variant == "averaged"
        report = SmoothnessReport(1.0, 1.0, 1.0, 1.0, 1.0)
        assert report.Linf_exact is None and report.to_json_dict()["L2"] == 1.0
        assert GridConfig(d=3, lambda_max_values=[2], theta_values=[0]).lambda_max_values == (2.0,)

    def test_post_init_rejections(self):
        with pytest.raises(ValueError):
            AdamConfig(step=0.0)
        with pytest.raises(ValueError):
            WeightedDiag((1.0, -1.0))
        with pytest.raises(ValueError):
            SkewMatrix(np.ones((2, 2)))
        with pytest.raises(ValueError):
            CoshProblem(0)

    @pytest.mark.parametrize("args, kwargs", [
        ((), {}),  # the required field is missing
        ((0.1, 0.9, 0.9, 1e-8, "standard", None, 7), {}),  # one positional too many
        ((0.1,), {"step": 0.2}),  # the same field twice
        ((0.1,), {"gamma": 0.2}),  # no such field
    ])
    def test_bad_arguments_raise_type_error(self, args, kwargs):
        with pytest.raises(TypeError):
            AdamConfig(*args, **kwargs)

    def test_a_field_without_default_after_a_default_is_rejected(self):
        with pytest.raises(TypeError):
            @record
            class Bad:
                a: int = 0
                b: int

    def test_unannotated_attribute_is_no_field(self):
        part = BlockPartition(((0, 1), (2,)))
        assert part.index == (slice(0, 2), slice(2, 3))
        with pytest.raises(TypeError):
            BlockPartition(((0,),), index=())
