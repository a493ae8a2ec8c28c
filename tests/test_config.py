"""Config serialisation: dict/JSON round-trips and validation."""

import json

import pytest

from repro.config import (
    ConfigError,
    autockt_from_dict,
    autockt_to_dict,
    env_from_dict,
    env_to_dict,
    load_config,
    ppo_from_dict,
    ppo_to_dict,
    reward_from_dict,
    reward_to_dict,
    save_config,
    schedule_from_dict,
    schedule_to_dict,
)
from repro.core import AutoCktConfig, SizingEnvConfig
from repro.core.reward import RewardSpec
from repro.rl import (
    CosineSchedule,
    ExponentialSchedule,
    LinearSchedule,
    PiecewiseSchedule,
    PPOConfig,
)


class TestScheduleRoundTrip:
    @pytest.mark.parametrize("schedule", [
        LinearSchedule(1e-3, 1e-5),
        ExponentialSchedule(0.01, 0.001),
        CosineSchedule(1.0, 0.0),
        PiecewiseSchedule(((0.0, 1.0), (0.5, 0.2), (1.0, 0.2))),
    ])
    def test_round_trip(self, schedule):
        restored = schedule_from_dict(schedule_to_dict(schedule))
        assert restored == schedule

    def test_none_passthrough(self):
        assert schedule_to_dict(None) is None
        assert schedule_from_dict(None) is None

    def test_dict_is_json_safe(self):
        data = schedule_to_dict(PiecewiseSchedule(((0.0, 1.0), (1.0, 0.0))))
        json.dumps(data)  # must not raise

    def test_missing_type_tag(self):
        with pytest.raises(ConfigError):
            schedule_from_dict({"start": 1.0, "end": 0.0})

    def test_unknown_type(self):
        with pytest.raises(ConfigError):
            schedule_from_dict({"type": "warp", "start": 1.0})

    def test_bad_fields(self):
        with pytest.raises(ConfigError):
            schedule_from_dict({"type": "linear", "begin": 1.0})


class TestSectionRoundTrips:
    def test_reward(self):
        reward = RewardSpec(soft_weight=0.5, sparse=True)
        assert reward_from_dict(reward_to_dict(reward)) == reward

    def test_ppo_with_schedules(self):
        config = PPOConfig(n_envs=4, lr=1e-3, hidden=(32, 32),
                           lr_schedule=LinearSchedule(1e-3, 0.0001),
                           ent_schedule=CosineSchedule(0.01, 0.0))
        restored = ppo_from_dict(ppo_to_dict(config))
        assert restored == config
        assert restored.hidden == (32, 32)  # tuple restored from JSON list

    def test_env_with_nested_reward(self):
        config = SizingEnvConfig(max_steps=17,
                                 reward=RewardSpec(soft_weight=0.25))
        restored = env_from_dict(env_to_dict(config))
        assert restored == config

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError):
            ppo_from_dict({"n_env": 4})  # typo: should be n_envs
        with pytest.raises(ConfigError):
            env_from_dict({"max_step": 10})


class TestFullConfig:
    def _config(self):
        return AutoCktConfig(
            ppo=PPOConfig(n_envs=6, n_steps=40, hidden=(50, 50, 50),
                          lr_schedule=ExponentialSchedule(5e-4, 5e-5)),
            env=SizingEnvConfig(max_steps=25),
            n_train_targets=30,
            max_iterations=120,
            stop_reward=0.0,
            parallel_envs=True,
            seed=7,
        )

    def test_round_trip(self):
        config = self._config()
        assert autockt_from_dict(autockt_to_dict(config)) == config

    def test_json_round_trip(self):
        config = self._config()
        text = json.dumps(autockt_to_dict(config))
        assert autockt_from_dict(json.loads(text)) == config

    def test_defaults_fill_missing_sections(self):
        config = autockt_from_dict({"max_iterations": 9})
        assert config.max_iterations == 9
        assert config.ppo == PPOConfig()
        assert config.env == SizingEnvConfig()

    def test_file_round_trip(self, tmp_path):
        config = self._config()
        path = tmp_path / "run.json"
        save_config(config, path)
        assert load_config(path) == config

    def test_file_is_human_readable(self, tmp_path):
        path = tmp_path / "run.json"
        save_config(self._config(), path)
        text = path.read_text()
        assert "max_iterations" in text
        assert text.endswith("\n")

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "absent.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_non_object_root(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        with pytest.raises(ConfigError):
            load_config(path)


class TestFieldTypes:
    def test_yaml_bare_exponent_names_key_and_fix(self, tmp_path):
        # PyYAML reads a bare ``1e-3`` as a string; training would fail
        # much later inside the optimiser.
        path = tmp_path / "run.yml"
        path.write_text("ppo: {lr: 1e-3}\n")
        with pytest.raises(ConfigError, match=r"PPOConfig\.lr") as err:
            load_config(path)
        assert "write 1.0e-3" in str(err.value)

    def test_string_int_rejected(self):
        with pytest.raises(ConfigError, match="n_train_targets"):
            autockt_from_dict({"n_train_targets": "50"})

    def test_float_for_int_rejected(self):
        with pytest.raises(ConfigError, match="n_envs"):
            autockt_from_dict({"ppo": {"n_envs": 2.5}})

    def test_bool_is_not_a_number(self):
        with pytest.raises(ConfigError, match="seed"):
            autockt_from_dict({"seed": True})
        with pytest.raises(ConfigError, match="gamma"):
            ppo_from_dict({"gamma": False})

    def test_bool_field_needs_a_bool(self):
        with pytest.raises(ConfigError, match="parallel_envs"):
            autockt_from_dict({"parallel_envs": 1})

    def test_int_accepted_for_float(self):
        assert ppo_from_dict({"lr": 1}).lr == 1

    def test_optional_float_accepts_none(self):
        assert autockt_from_dict({"stop_reward": None}).stop_reward is None
        with pytest.raises(ConfigError, match="stop_reward"):
            autockt_from_dict({"stop_reward": "0"})

    def test_hidden_takes_a_list_of_ints(self):
        assert ppo_from_dict({"hidden": [8, 8]}).hidden == (8, 8)
        with pytest.raises(ConfigError, match="hidden"):
            ppo_from_dict({"hidden": [8.0, 8]})
        with pytest.raises(ConfigError, match="hidden"):
            ppo_from_dict({"hidden": 8})

    def test_nested_section_must_be_a_mapping(self):
        with pytest.raises(ConfigError, match="ppo"):
            autockt_from_dict({"ppo": 3})

