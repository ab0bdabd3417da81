import dataclasses
import re

import pytest

from hgchat.config import ConfigError, TrainConfig
from hgchat.graph import ABLATABLE


# Adam divides by 1 - beta**t and by sqrt(v_hat) + eps, so beta = 1 or
# eps <= 0 turns the parameters into NaN on the first step.
@pytest.mark.parametrize("name, value, message", [
    ("beta1", 1.0, "beta1 must be in [0, 1), got 1.0"),
    ("beta1", -0.1, "beta1 must be in [0, 1), got -0.1"),
    ("beta2", 1.0, "beta2 must be in [0, 1), got 1.0"),
    ("beta2", float("nan"), "beta2 must be in [0, 1), got nan"),
    ("adam_eps", 0.0, "adam_eps must be positive, got 0.0"),
    ("adam_eps", -1e-8, "adam_eps must be positive, got -1e-08"),
    ("learning_rate", 0.0, "learning_rate must be positive, got 0.0"),
    ("learning_rate", -1e-3, "learning_rate must be positive, got -0.001"),
    ("epochs", -3, "epochs must be at least 0, got -3"),
    # numpy refuses a negative seed only once the first generator is made
    ("seed", -1, "seed must be at least 0, got -1"),
], ids=["beta1-one", "beta1-negative", "beta2-one", "beta2-nan", "adam-eps-zero",
        "adam-eps-negative", "learning-rate-zero", "learning-rate-negative", "epochs-negative",
        "seed-negative"])
def test_optimizer_setting_that_cannot_train_is_a_config_error(name, value, message):
    with pytest.raises(ConfigError, match=re.escape(message)):
        TrainConfig(**{name: value})
    with pytest.raises(ConfigError, match=re.escape(message)):
        dataclasses.replace(TrainConfig(), **{name: value})  # as --resume sets --epochs


def test_optimizer_settings_at_their_closed_bounds_are_accepted():
    cfg = TrainConfig(beta1=0.0, beta2=0.0, epochs=0)
    assert (cfg.beta1, cfg.beta2, cfg.epochs) == (0.0, 0.0, 0)


def test_ablation_names_are_the_graph_builders():
    assert TrainConfig(ablate=tuple(ABLATABLE)).ablate == tuple(ABLATABLE)
    with pytest.raises(ConfigError, match=re.escape("unknown ablation(s): ['faces']")):
        TrainConfig(ablate=("faces",))
