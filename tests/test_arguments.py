"""Library entry points refuse a malformed argument with ValueError and a
message that names what is wrong."""

import re

import numpy as np
import pytest

from tspheat.generator import (
    TrainConfig,
    column_softmax,
    init_logits,
    loss_gradient,
    surrogate_loss,
)
from tspheat.instances import Instance, Tour, generate_random
from tspheat.search import PRESETS, random_tour, run_search

EYE3 = np.eye(3)

CASES = {
    "instance-columns": (lambda: Instance(coords=np.zeros((4, 3))),
                         "coords must have shape (n, 2), got (4, 3)"),
    "instance-two-cities": (lambda: Instance(coords=np.zeros((2, 2))),
                            "an instance needs at least 3 cities, got 2"),
    "tour-2d": (lambda: Tour.from_order(np.arange(4).reshape(2, 2)),
                "tour order must be a 1-d sequence of at least 3 cities"),
    "run-search-shape": (lambda: run_search(generate_random(5, 0), np.full((4, 4), 0.1),
                                            PRESETS["tsp20"].with_budget(max_rounds=1), 0),
                         "pruned heat map shape (4, 4) does not match n=5"),
    "random-tour": (lambda: random_tour(2, 0), "n must be >= 3, got 2"),
    "init-logits": (lambda: init_logits(2, TrainConfig()), "n must be >= 3, got 2"),
    "softmax-not-square": (lambda: column_softmax(np.zeros((3, 4))),
                           "logits must be square, got shape (3, 4)"),
    "gradient-d-shape": (lambda: loss_gradient(np.zeros((3, 3)), np.zeros((4, 4)), 1.0, 1.0),
                         "dimension mismatch: logits (3, 3), d (4, 4)"),
    "negative-lambda1": (lambda: surrogate_loss(EYE3, EYE3, EYE3, -1.0, 1.0),
                         "lambda1 and lambda2 must be >= 0"),
}


@pytest.mark.parametrize("case", CASES)
def test_malformed_argument_named(case):
    call, message = CASES[case]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()
