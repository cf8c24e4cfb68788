import pytest

from idt.config import (ConfigError, RunConfig, build_run_config,
                        load_run_config, parse_config_file)


def write(path, text):
    path.write_text(text)
    return str(path)


class TestParsing:
    def test_flat_file(self, tmp_path):
        p = write(tmp_path / "a.cfg", "steps = 5\n# comment\nseed = 2\n")
        assert parse_config_file(p) == {"steps": "5", "seed": "2"}

    def test_include_defaults_are_overridden(self, tmp_path):
        write(tmp_path / "base.cfg", "steps = 5\nseed = 1\n")
        p = write(tmp_path / "run.cfg", "include = base.cfg\nseed = 2\n")
        assert parse_config_file(p) == {"steps": "5", "seed": "2"}

    def test_include_chain_merges_outward(self, tmp_path):
        write(tmp_path / "c.cfg", "a = c\nb = c\nd = c\n")
        write(tmp_path / "b.cfg", "include = c.cfg\nb = b\nd = b\n")
        p = write(tmp_path / "a.cfg", "include = b.cfg\nd = a\n")
        assert parse_config_file(p) == {"a": "c", "b": "b", "d": "a"}

    def test_include_is_relative_to_including_file(self, tmp_path):
        sub = tmp_path / "sub"
        sub.mkdir()
        write(sub / "base.cfg", "steps = 9\n")
        p = write(tmp_path / "run.cfg", "include = sub/base.cfg\n")
        assert parse_config_file(p)["steps"] == "9"

    def test_include_cycle_detected(self, tmp_path):
        write(tmp_path / "a.cfg", "include = b.cfg\n")
        write(tmp_path / "b.cfg", "include = a.cfg\n")
        with pytest.raises(ConfigError, match="cycle"):
            parse_config_file(str(tmp_path / "a.cfg"))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            parse_config_file(str(tmp_path / "nope.cfg"))

    def test_malformed_line(self, tmp_path):
        p = write(tmp_path / "a.cfg", "just a line without equals\n")
        with pytest.raises(ConfigError):
            parse_config_file(p)


class TestBuildRunConfig:
    def test_sections_route_to_subconfigs(self):
        cfg = build_run_config({
            "dataset": "d", "out_dir": "o", "seed": "7", "steps": "11",
            "step_size": "0.01", "momentum": "0.8", "embed_dim": "16",
            "block_pairs": "1", "heads": "2", "register_count": "2",
            "aux_depth": "no", "weight_illum": "0.25", "scenes": "3",
            "views": "2", "height": "16", "width": "24", "data_seed": "9",
            "checker_prob": "0.0", "lobe_count": "2",
        })
        assert cfg.dataset == "d" and cfg.seed == 7 and cfg.steps == 11
        assert cfg.step_size == 0.01 and cfg.momentum == 0.8
        assert cfg.model.embed_dim == 16 and cfg.model.aux_depth is False
        assert cfg.loss.weight_illum == 0.25
        assert cfg.data.scenes == 3 and cfg.data.width == 24
        assert cfg.data.seed == 9
        assert cfg.data.scene.checker_prob == 0.0
        assert cfg.data.scene.lobe_count == 2

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config key"):
            build_run_config({"stepz": "3"})

    def test_bad_int(self):
        with pytest.raises(ConfigError, match="expected integer"):
            build_run_config({"steps": "many"})

    def test_bad_bool(self):
        with pytest.raises(ConfigError, match="expected boolean"):
            build_run_config({"aux_depth": "maybe"})

    @pytest.mark.parametrize("raw,expect", [
        ("yes", True), ("TRUE", True), ("1", True),
        ("off", False), ("0", False), ("No", False)])
    def test_bool_spellings(self, raw, expect):
        assert build_run_config({"overwrite": raw}).data.overwrite is expect


# every flat config key: (the field it sets, a raw value, the typed value);
# written out so a renamed field or a tuple field gaining a key shows here
KEY_CONTRACT = {
    "patch_size": ("model.patch_size", "4", 4),
    "embed_dim": ("model.embed_dim", "16", 16),
    "block_pairs": ("model.block_pairs", "2", 2),
    "heads": ("model.heads", "2", 2),
    "register_count": ("model.register_count", "3", 3),
    "sg_lobes": ("model.sg_lobes", "2", 2),
    "aux_depth": ("model.aux_depth", "no", False),
    "eps": ("loss.eps", "0.001", 0.001),
    "weight_alb": ("loss.weight_alb", "0.5", 0.5),
    "weight_diff": ("loss.weight_diff", "0.5", 0.5),
    "weight_spec": ("loss.weight_spec", "0.5", 0.5),
    "weight_recon": ("loss.weight_recon", "0.5", 0.5),
    "weight_illum": ("loss.weight_illum", "0.25", 0.25),
    "scenes": ("data.scenes", "3", 3),
    "views": ("data.views", "2", 2),
    "height": ("data.height", "16", 16),
    "width": ("data.width", "24", 24),
    "data_seed": ("data.seed", "9", 9),
    "overwrite": ("data.overwrite", "yes", True),
    "arc_radius": ("data.arc_radius", "3.5", 3.5),
    "arc_span": ("data.arc_span", "0.2", 0.2),
    "elevation": ("data.elevation", "0.1", 0.1),
    "fov_degrees": ("data.fov_degrees", "40", 40.0),
    "checker_prob": ("data.scene.checker_prob", "0.25", 0.25),
    "lobe_count": ("data.scene.lobe_count", "2", 2),
    "min_primitives": ("data.scene.min_primitives", "1", 1),
    "max_primitives": ("data.scene.max_primitives", "3", 3),
    "dataset": ("dataset", "d", "d"),
    "out_dir": ("out_dir", "o", "o"),
    "seed": ("seed", "7", 7),
    "steps": ("steps", "11", 11),
    "step_size": ("step_size", "0.01", 0.01),
    "momentum": ("momentum", "0.8", 0.8),
    "decay": ("decay", "0.5", 0.5),
    "batch_scenes": ("batch_scenes", "2", 2),
    "views_per_batch": ("views_per_batch", "3", 3),
    "view_dropout": ("view_dropout", "0.1", 0.1),
    "checkpoint_every": ("checkpoint_every", "5", 5),
    "depth_weight": ("depth_weight", "0.2", 0.2),
    "train_scenes": ("train_scenes", "4", 4),
    "occlusion_tau": ("occlusion_tau", "0.1", 0.1),
}


class TestKeyContract:
    @pytest.mark.parametrize("key", sorted(KEY_CONTRACT))
    def test_key_sets_its_field(self, key):
        path, raw, expect = KEY_CONTRACT[key]
        value = build_run_config({key: raw})
        for part in path.split("."):
            value = getattr(value, part)
        assert value == expect and type(value) is type(expect)

    @pytest.mark.parametrize("key", ["sharpness_range", "palette", "model"])
    def test_tuple_and_nested_fields_have_no_key(self, key):
        with pytest.raises(ConfigError, match="unknown config key"):
            build_run_config({key: "1"})


class TestValidate:
    def base(self, **kw):
        return RunConfig(**kw)

    @pytest.mark.parametrize("kw", [
        {"step_size": 0.0}, {"steps": 0}, {"momentum": 1.0},
        {"momentum": -0.1}, {"decay": -1.0}, {"batch_scenes": 0},
        {"views_per_batch": 0}, {"view_dropout": 1.5},
        {"checkpoint_every": 0}, {"depth_weight": -0.1},
        {"train_scenes": -1}])
    def test_bad_fields(self, kw):
        with pytest.raises(ConfigError):
            self.base(**kw).validate()

    def test_invalid_model_wrapped(self):
        from idt.model import ModelConfig
        cfg = self.base(model=ModelConfig(embed_dim=15, heads=3))
        with pytest.raises(ConfigError):
            cfg.validate()

    def test_need_dataset(self, tmp_path):
        cfg = self.base(dataset=str(tmp_path / "missing"))
        cfg.validate()  # fine when the dataset is not needed
        with pytest.raises(ConfigError, match="dataset directory"):
            cfg.validate(need_dataset=True)

    def test_defaults_valid(self):
        RunConfig().validate()


def test_load_run_config_end_to_end(tmp_path):
    write(tmp_path / "base.cfg", "steps = 99\nstep_size = 0.001\n")
    p = write(tmp_path / "run.cfg",
              "include = base.cfg\nsteps = 4\nseed = 12\nheads = 2\n"
              "embed_dim = 16\n")
    cfg = load_run_config(p)
    assert cfg.steps == 4 and cfg.step_size == 0.001 and cfg.seed == 12
    assert cfg.model.heads == 2
