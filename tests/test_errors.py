import json

import numpy as np
import pytest

from cesurv.aft import AFTModel
from cesurv.dataio import DatasetSpec
from cesurv.errors import InvalidInputError, dataclass_kwargs
from cesurv.survsim import SimConfig


class TestDataclassKwargsTypes:
    """Values are checked against the field annotations, as JSON reads them."""

    @pytest.mark.parametrize("d", [
        {"n_subjects": 10, "max_follow_up": 50},  # an integer where a float is due
        {"coefficients": [1, 0.5], "covariate_params": [[0, 1], [0.5, 2.0]]},
        {"seed": 0, "event_shape": 1.5},
    ])
    def test_accepts_json_values(self, d):
        assert dataclass_kwargs(SimConfig, d) == d

    @pytest.mark.parametrize("d, field", [
        ({"n_subjects": True}, "n_subjects"),  # bool is not a number here
        ({"max_follow_up": "100"}, "max_follow_up"),
        ({"coefficients": 1.4}, "coefficients"),
        ({"coefficients": [1.4, None]}, "coefficients"),
        ({"covariate_params": [[0.4, 1.1, 2.0]]}, "covariate_params"),
        ({"covariate_params": [0.4, 1.1]}, "covariate_params"),
    ])
    def test_rejects_sim_config_values(self, d, field):
        with pytest.raises(InvalidInputError, match=f"SimConfig field '{field}' must be"):
            dataclass_kwargs(SimConfig, d)

    def test_optional_and_open_fields(self):
        base = {"path": "d.csv"}
        for extra in ({"covariate_cols": None}, {"covariate_cols": ["a", "b"]},
                      {"status_event_value": "dead"}, {"status_event_value": 2}):
            assert DatasetSpec.from_dict({**base, **extra}).path == "d.csv"
        for extra in ({"covariate_cols": "a"}, {"na_screen_cols": ["a", 3]}, {"time_col": 1}):
            with pytest.raises(InvalidInputError, match="DatasetSpec field"):
                DatasetSpec.from_dict({**base, **extra})

    def test_model_round_trip_still_reads(self):
        model = AFTModel(intercept=1.0, coefficients=np.array([0.5, -2.0]), log_scale=-0.1,
                         included=["a", "b"], converged=True, iterations=7, final_gradient_norm=1e-9)
        back = AFTModel.from_dict(json.loads(json.dumps(model.to_dict())))
        np.testing.assert_array_equal(back.coefficients, model.coefficients)
        for field, value in (("included", ["a", 2]), ("converged", 1), ("iterations", 7.0)):
            with pytest.raises(InvalidInputError, match=f"AFTModel field '{field}' must be"):
                AFTModel.from_dict({**model.to_dict(), field: value})
