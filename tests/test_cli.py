import dataclasses
import json
import re
import sys
import tracemalloc

import numpy as np
import pytest

from qkevolve import cli, evolve
from qkevolve.cli import (
    ConfigError,
    RunConfig,
    _individual_record,
    _load_image,
    bilinear_resize,
    load_image_dataset,
    main,
    parse_config_file,
    prepare_data,
    run_pipeline,
)
from qkevolve.evolve import FitnessPair, GaConfig, Individual, train_individual
from qkevolve.genome import EncodingMode, bits_to_line, genome_length, line_to_bits
from qkevolve.reduce import stratified_split
from qkevolve.svm import SvmConfig

from oracles import bilinear_reference


def write_pgm(path, pixels, maxval=255, binary=True, comment=None):
    pixels = np.asarray(pixels)
    h, w = pixels.shape
    header = f"P5\n" if binary else "P2\n"
    if comment:
        header += f"# {comment}\n"
    header += f"{w} {h}\n{maxval}\n"
    if binary:
        dtype = ">u2" if maxval > 255 else "u1"
        path.write_bytes(header.encode() + pixels.astype(dtype).tobytes())
    else:
        body = "\n".join(" ".join(str(int(v)) for v in row) for row in pixels)
        path.write_text(header + body + "\n")


def make_image_tree(root, per_class=8, size=10, seed=0):
    """Two-class synthetic tree: dark-ish blobs vs bright-ish blobs."""
    rng = np.random.default_rng(seed)
    for label, name in enumerate(["a_negative", "b_positive"]):
        class_dir = root / name
        class_dir.mkdir(parents=True)
        for k in range(per_class):
            base = 60 if label == 0 else 180
            img = np.clip(rng.normal(base, 25, size=(size, size)), 0, 255)
            write_pgm(class_dir / f"img{k:02d}.pgm", img.astype(int), binary=bool(k % 2))
    return root


def write_config(path, **kv):
    lines = ["# test configuration"]
    lines += [f"{key} = {value}" for key, value in kv.items()]
    path.write_text("\n".join(lines) + "\n")
    return path


def small_run_config(tmp_path, dataset, out_name="out", **overrides):
    kv = dict(
        mode="pca",
        dataset=dataset,
        output_dir=tmp_path / out_name,
        image_size=8,
        qubits=2,
        layers=2,
        mu=8,
        p_cross=0.6,
        p_ind=0.4,
        p_gen=0.3,
        generations=4,
        patience=0,
        seed=7,
        baseline="true",
        baseline_epochs=30,
    )
    kv["lambda"] = 4
    kv.update(overrides)
    return write_config(tmp_path / f"{out_name}.cfg", **kv)


# One out-of-range value per case, under its config-file key. A run must
# reject each one, whether the config is parsed from a file or built in code.
OUT_OF_RANGE = [
    ("mu", 0),
    ("lambda", 0),
    ("svm_c", 0),
    ("svm_c", float("nan")),
    ("svm_c", float("inf")),
    ("svm_tol", 0),
    ("svm_tol", float("nan")),
    ("svm_tol", float("inf")),
    ("svm_max_passes", 0),
    ("qubits", 0),
    ("layers", 0),
    ("p_gen", 1.5),
    ("generations", 0),
    ("patience", -1),
    ("test_fraction", 0),
    ("test_fraction", 1.0),
    ("baseline_epochs", 0),
    ("baseline_lr", -0.5),
    ("baseline_lr", 0),
    ("baseline_lr", float("inf")),
    ("image_size", 0),
    ("seed", -1),
]


class TestConfigParsing:
    def test_round_trips_values(self, tmp_path):
        dataset = make_image_tree(tmp_path / "data")
        cfg = parse_config_file(small_run_config(tmp_path, dataset))
        assert cfg.mode is EncodingMode.PCA_HEADER
        assert cfg.qubits == 2 and cfg.layers == 2
        assert cfg.lambda_ == 4
        assert cfg.baseline is True

    def test_unknown_key_rejected(self, tmp_path):
        path = write_config(tmp_path / "c.cfg", mode="pca", dataset=".", output_dir=".", bogus=3)
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config_file(path)

    @pytest.mark.parametrize("key", ["seed", "lambda"])
    def test_repeated_key_rejected(self, tmp_path, key):
        path = write_config(tmp_path / "c.cfg", mode="pca", dataset=".", output_dir=".")
        path.write_text(path.read_text() + f"{key} = 1\n{key} = 7\n")
        with pytest.raises(ConfigError, match=f"line 6: duplicate key '{key}'") as excinfo:
            parse_config_file(path)
        assert excinfo.value.code == "config-key"

    @pytest.mark.parametrize(
        "key, text, expected",
        [
            pytest.param("qubits", "six", "as int", id="int"),
            pytest.param("p_gen", "high", "as float", id="float"),
            pytest.param("baseline", "maybe", "as bool", id="bool"),
            pytest.param("mode", "magic", "as 'pca' or 'external'", id="mode"),
        ],
    )
    def test_bad_value_rejected(self, tmp_path, key, text, expected):
        kv = dict(mode="pca", dataset=".", output_dir=".")
        kv[key] = text
        path = write_config(tmp_path / "c.cfg", **kv)
        line_no = 2 + list(kv).index(key)  # after the comment line
        with pytest.raises(ConfigError) as excinfo:
            parse_config_file(path)
        assert excinfo.value.code == "config-value"
        assert excinfo.value.detail == f"line {line_no}: cannot parse {text!r} for {key!r} {expected}"

    @pytest.mark.parametrize("key", ["dataset", "output_dir"])
    def test_empty_value_rejected(self, tmp_path, key):
        kv = dict(mode="pca", dataset=make_image_tree(tmp_path / "data"), output_dir=tmp_path / "o")
        kv[key] = ""
        path = write_config(tmp_path / "c.cfg", **kv)
        line_no = 2 + list(kv).index(key)  # after the comment line
        with pytest.raises(ConfigError, match=f"line {line_no}: empty value for '{key}'") as excinfo:
            parse_config_file(path)
        assert excinfo.value.code == "config-value"

    def test_missing_required_key(self, tmp_path):
        path = write_config(tmp_path / "c.cfg", mode="pca")
        with pytest.raises(ConfigError, match="required"):
            parse_config_file(path)

    def test_missing_dataset_path(self, tmp_path):
        path = write_config(
            tmp_path / "c.cfg", mode="pca", dataset=tmp_path / "nope", output_dir=tmp_path
        )
        with pytest.raises(ConfigError, match="does not exist"):
            parse_config_file(path)

    def test_hash_inside_a_value_is_kept(self, tmp_path):
        path = write_config(
            tmp_path / "c.cfg", mode="pca", dataset=tmp_path, output_dir=tmp_path / "run#1"
        )
        path.write_text(path.read_text() + "seed = 5  # inline comment\n#seed = 9\n")
        cfg = parse_config_file(path)
        assert cfg.output_dir == tmp_path / "run#1"
        assert cfg.seed == 5

    @pytest.mark.parametrize("key, value", OUT_OF_RANGE)
    def test_out_of_range_value_rejected_before_loading(self, tmp_path, key, value):
        path = write_config(
            tmp_path / "c.cfg", mode="pca", dataset=tmp_path, output_dir=tmp_path, **{key: value}
        )
        with pytest.raises(ConfigError) as excinfo:
            parse_config_file(path)
        assert excinfo.value.code == "config-value"
        # the message names the key the file can contain
        assert re.search(rf"(?<!\w){key}\b", excinfo.value.detail), excinfo.value.detail

    @pytest.mark.parametrize("key, value", OUT_OF_RANGE + [("mode", "magic")])
    def test_out_of_range_value_rejected_when_built_in_code(self, tmp_path, key, value):
        kwargs = dict(mode="pca", dataset=tmp_path, output_dir=tmp_path)
        kwargs["lambda_" if key == "lambda" else key] = value
        with pytest.raises(ValueError):
            RunConfig(**kwargs)

    def test_mode_string_is_the_encoding(self, tmp_path):
        config = RunConfig(mode="pca", dataset=tmp_path, output_dir=tmp_path)
        assert config == RunConfig(mode=EncodingMode.PCA_HEADER, dataset=tmp_path, output_dir=tmp_path)
        assert config.mode is EncodingMode.PCA_HEADER
        assert config.echo()["mode"] == "pca"

    def test_defaults_agree_with_the_configs_they_restate(self, tmp_path):
        config = RunConfig(mode="pca", dataset=tmp_path, output_dir=tmp_path)
        assert config.ga_config() == GaConfig(qubits=6, layers=11)
        assert config.svm_config() == SvmConfig()


def read_scaled(path):
    """A PGM's samples in [0, 1], as the dataset loader scales them."""
    samples, maxval = cli._read_pgm(path)
    return samples / maxval


class TestPgm:
    def test_binary_and_ascii_agree(self, tmp_path):
        rng = np.random.default_rng(5)
        img = rng.integers(0, 256, size=(6, 9))
        write_pgm(tmp_path / "b.pgm", img, binary=True)
        write_pgm(tmp_path / "a.pgm", img, binary=False, comment="with a comment")
        b = read_scaled(tmp_path / "b.pgm")
        a = read_scaled(tmp_path / "a.pgm")
        assert np.array_equal(a, b)
        assert a.max() <= 1.0 and a.min() >= 0.0

    def test_sixteen_bit_maxval(self, tmp_path):
        img = np.array([[0, 1000], [65535, 32768]])
        write_pgm(tmp_path / "w.pgm", img, maxval=65535)
        out = read_scaled(tmp_path / "w.pgm")
        assert out[1, 0] == 1.0
        assert out[0, 0] == 0.0

    def test_mid_gray_maps_to_half(self, tmp_path):
        write_pgm(tmp_path / "g.pgm", np.full((4, 4), 5), maxval=10, binary=False)
        assert np.all(read_scaled(tmp_path / "g.pgm") == 0.5)

    @pytest.mark.parametrize(
        "binary, maxval, value", [(False, 10, 300), (True, 100, 255), (True, 1000, 1001)]
    )
    def test_sample_above_maxval_rejected_and_skipped(self, tmp_path, caplog, binary, maxval, value):
        from qkevolve.cli import _read_pgm

        root = make_image_tree(tmp_path / "imgs", per_class=2, size=4)
        bad = root / "a_negative" / "over.pgm"
        img = np.zeros((4, 4), dtype=int)
        img[1, 2] = value
        write_pgm(bad, img, maxval=maxval, binary=binary)
        with pytest.raises(ValueError, match=f"outside \\[0, {maxval}\\]"):
            _read_pgm(bad)
        rows, _ = load_image_dataset(root, image_size=4)
        assert rows.shape == (4, 16) and rows.max() <= 1.0
        assert any("skipping unreadable image" in r.message and "over.pgm" in r.message
                   for r in caplog.records)

    @pytest.mark.parametrize(
        "token, error",
        [
            ("1.5", "is not a decimal integer"),
            ("1e2", "is not a decimal integer"),
            ("+5", "is not a decimal integer"),
            ("1_0", "is not a decimal integer"),
            ("99999999999999999999", "does not fit in 64 bits"),
        ],
    )
    def test_non_integer_ascii_sample_rejected_and_skipped(self, tmp_path, caplog, token, error):
        from qkevolve.cli import _read_pgm

        root = make_image_tree(tmp_path / "imgs", per_class=2, size=4)
        bad = root / "a_negative" / "frac.pgm"
        bad.write_text("P2\n4 4\n255\n" + " ".join(["0"] * 15 + [token]) + "\n")
        with pytest.raises(ValueError, match=rf"frac\.pgm: PGM ascii sample {error}"):
            _read_pgm(bad)
        rows, _ = load_image_dataset(root, image_size=4)
        assert rows.shape == (4, 16)
        assert any("skipping unreadable image" in r.message and "frac.pgm" in r.message
                   for r in caplog.records)

    def test_truncated_rejected(self, tmp_path):
        (tmp_path / "t.pgm").write_bytes(b"P5\n4 4\n255\n\x00\x01")
        from qkevolve.cli import _read_pgm

        with pytest.raises(ValueError, match="truncated"):
            _read_pgm(tmp_path / "t.pgm")


class TestBilinearResize:
    def test_checkerboard_corners_retain_extremes(self):
        board = np.array([[0.0, 1.0], [1.0, 0.0]])
        out = bilinear_resize(board, 250, 250)
        assert out[0, 0] == 0.0
        assert out[0, -1] == 1.0
        assert out[-1, 0] == 1.0
        assert out[-1, -1] == 0.0

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(9)
        img = rng.uniform(size=(4, 6))
        got = bilinear_resize(img, 7, 5)
        assert np.allclose(got, bilinear_reference(img, 7, 5), atol=1e-12)

    def test_identity_when_sizes_match(self):
        rng = np.random.default_rng(10)
        for shape in ((5, 5), (4, 6)):
            img = rng.uniform(size=shape)
            # the half-pixel formula, at the input's own shape, is exactly the identity
            assert np.array_equal(bilinear_resize(img, *shape), img)
            assert np.array_equal(bilinear_reference(img, *shape), img)


class TestLoadImageDataset:
    def test_shapes_and_lexicographic_labels(self, tmp_path):
        root = tmp_path / "imgs"
        for name, count, value in (("classB", 2, 200), ("classA", 3, 30)):
            d = root / name
            d.mkdir(parents=True)
            for k in range(count):
                write_pgm(d / f"{k}.pgm", np.full((6, 6), value))
        rows, labels = load_image_dataset(root, 250)
        assert rows.shape == (5, 62500)
        assert labels.tolist() == [0, 0, 0, 1, 1]  # classA sorts first
        assert np.allclose(rows[0], 30 / 255)

    def test_unreadable_file_skipped_with_warning(self, tmp_path, caplog):
        root = make_image_tree(tmp_path / "imgs", per_class=3, size=6)
        (root / "a_negative" / "img01_broken.pgm").write_bytes(b"NOTPGM")  # mid-class
        rows, labels = load_image_dataset(root, image_size=5)
        assert rows.shape == (6, 25)
        assert any("skipping unreadable" in r.message for r in caplog.records)
        readable = [
            (label, path)
            for label, name in enumerate(["a_negative", "b_positive"])
            for path in sorted((root / name).iterdir())
            if "broken" not in path.name
        ]
        assert labels.tolist() == [label for label, _ in readable]
        for row, (_, path) in zip(rows, readable):
            image = np.divide(*_load_image(path))
            assert row.tobytes() == bilinear_resize(image, 5, 5).ravel().tobytes()
        # the trimmed rows own their memory: no (files x d) buffer stays alive as a base
        assert rows.base is None and rows.flags.owndata
        assert labels.base is None

    def test_same_size_images_scaled_straight_into_rows(self, tmp_path):
        root = make_image_tree(tmp_path / "imgs", per_class=3, size=6)  # binary and ascii files
        sixteen_bit = np.arange(36).reshape(6, 6) * 1800
        write_pgm(root / "b_positive" / "wide.pgm", sixteen_bit, maxval=65535)
        rows, _ = load_image_dataset(root, image_size=6)
        files = [
            path for name in ("a_negative", "b_positive") for path in sorted((root / name).iterdir())
        ]
        assert rows.shape == (7, 36)
        for row, path in zip(rows, files):
            image = np.divide(*_load_image(path))
            assert row.tobytes() == image.ravel().tobytes()
            assert row.tobytes() == bilinear_resize(image, 6, 6).ravel().tobytes()

    def test_non_pgm_file_skipped_without_pillow(self, tmp_path, monkeypatch, caplog):
        monkeypatch.setitem(sys.modules, "PIL", None)  # as if Pillow were not installed
        root = make_image_tree(tmp_path / "imgs", per_class=2, size=4)
        (root / "b_positive" / "photo.png").write_bytes(b"\x89PNG\r\n\x1a\n")
        rows, labels = load_image_dataset(root, image_size=4)
        assert rows.shape == (4, 16) and labels.tolist() == [0, 0, 1, 1]
        assert any(
            "skipping unreadable image" in r.message
            and "photo.png: only PGM is supported without Pillow installed" in r.message
            for r in caplog.records
        )

    def test_wrong_class_count_aborts(self, tmp_path):
        root = tmp_path / "one"
        (root / "only").mkdir(parents=True)
        write_pgm(root / "only" / "x.pgm", np.zeros((4, 4), dtype=int))
        with pytest.raises(ValueError, match="exactly 2"):
            load_image_dataset(root, 250)


class TestPipeline:
    def test_run_writes_consistent_reports(self, tmp_path):
        dataset = make_image_tree(tmp_path / "data")
        config = parse_config_file(small_run_config(tmp_path, dataset))
        report = run_pipeline(config)

        out = config.output_dir
        assert (out / "report.json").is_file()
        assert (out / "archive.json").is_file()
        loaded = json.loads((out / "report.json").read_text())
        assert loaded["best"]["accuracy"] == report["best"]["accuracy"]
        assert loaded["baseline"]["accuracy"] is not None
        qsvm = loaded["best"]["qsvm"]
        assert len(qsvm["dual_coefs"]) == loaded["dataset"]["n_train"]
        assert qsvm["n_support"] <= loaded["dataset"]["n_train"]
        assert np.isfinite(qsvm["bias"])
        # best is the archive's first record plus the retrained winner's QSVM
        assert {k: v for k, v in loaded["best"].items() if k != "qsvm"} == loaded["archive"][0]
        # make_image_tree writes 8 images per class
        assert loaded["dataset"]["class_counts"] == {"0": 8, "1": 8}
        assert loaded["dataset"]["n_samples"] == 16
        history = (out / "history.csv").read_text().splitlines()
        assert len(history) == 1 + report["generations_run"]
        # archive must be mutually non-dominated
        points = [(m["accuracy"], m["objective_balance"]) for m in loaded["archive"]]
        for p in points:
            for q in points:
                assert not (q[0] >= p[0] and q[1] <= p[1] and q != p)

    def test_config_built_in_code_with_string_paths_runs(self, tmp_path):
        parsed = parse_config_file(small_run_config(tmp_path, make_image_tree(tmp_path / "data")))
        fields = dataclasses.asdict(parsed)
        fields.update(dataset=str(parsed.dataset), output_dir=str(tmp_path / "built"))
        built = RunConfig(**fields)
        run_pipeline(built)
        assert (tmp_path / "built" / "report.json").is_file()
        assert built == dataclasses.replace(parsed, output_dir=tmp_path / "built")

    def test_repeat_run_identical_minus_wallclock(self, tmp_path):
        dataset = make_image_tree(tmp_path / "data")
        r1 = run_pipeline(parse_config_file(small_run_config(tmp_path, dataset, "o1")))
        r2 = run_pipeline(parse_config_file(small_run_config(tmp_path, dataset, "o2")))
        for d in (r1, r2):
            d.pop("wall_clock_seconds")
            d["config"].pop("output_dir")
        assert r1 == r2
        h1 = (tmp_path / "o1" / "history.csv").read_text().splitlines()
        h2 = (tmp_path / "o2" / "history.csv").read_text().splitlines()
        strip = lambda lines: [",".join(l.split(",")[:-1]) for l in lines]
        assert strip(h1) == strip(h2)

    def test_report_split_matches_stratified_split(self, tmp_path):
        dataset = make_image_tree(tmp_path / "data")
        config = parse_config_file(small_run_config(tmp_path, dataset))
        report = run_pipeline(config)
        rows, labels = load_image_dataset(dataset, config.image_size)
        train, test = stratified_split(rows, labels, config.test_fraction, config.seed)
        assert report["dataset"]["train_indices"] == train.tolist()
        assert report["dataset"]["test_indices"] == test.tolist()

    def test_rerun_from_report_echo_reproduces_archive(self, tmp_path):
        dataset = make_image_tree(tmp_path / "data")
        first = parse_config_file(small_run_config(tmp_path, dataset, "first"))
        run_pipeline(first)
        echo = json.loads((tmp_path / "first" / "report.json").read_text())["config"]
        echo["output_dir"] = str(tmp_path / "second")
        echo["baseline"] = str(echo["baseline"]).lower()
        replay = write_config(tmp_path / "replay.cfg", **echo)
        run_pipeline(parse_config_file(replay))
        a1 = (tmp_path / "first" / "archive.json").read_bytes()
        a2 = (tmp_path / "second" / "archive.json").read_bytes()
        assert a1 == a2

    def test_report_gives_effective_pca_count(self, tmp_path):
        dataset = make_image_tree(tmp_path / "data")  # 12 training rows: at most 11 components
        config = parse_config_file(small_run_config(tmp_path, dataset))
        report = run_pipeline(config)
        for record in report["archive"]:
            assert record["pca_components_effective"] == min(record["pca_components"], 11)

        prepared = prepare_data(config)
        length = genome_length(config.qubits, config.layers, config.mode)
        all_ones = Individual(bits=np.ones(length, dtype=np.uint8), fitness=FitnessPair(0.5, 1.0, 1.0))
        record = _individual_record(all_ones, config, prepared)
        assert record["pca_components"] == 64
        assert record["pca_components_effective"] == prepared.eval_data.x_train.shape[0] - 1 == 11

    def test_train_individual_reproduces_reported_best(self, tmp_path):
        dataset = make_image_tree(tmp_path / "data")
        config = parse_config_file(small_run_config(tmp_path, dataset))
        report = run_pipeline(config)
        bits = line_to_bits(report["best"]["bitstring"])
        data = prepare_data(config).eval_data
        _, classifier, accuracy = train_individual(bits, data, config)
        assert accuracy == report["best"]["accuracy"]
        assert classifier.summary() == report["best"]["qsvm"]

    def test_external_mode_end_to_end(self, tmp_path, two_gauss_dataset):
        x, y01 = two_gauss_dataset
        csv_path = tmp_path / "features.csv"
        header = ",".join([f"f{i}" for i in range(64)] + ["label"])
        rows = [",".join(str(v) for v in row) + f",{label}" for row, label in zip(x[:60], y01[:60])]
        csv_path.write_text(header + "\n" + "\n".join(rows))
        cfg = small_run_config(tmp_path, csv_path, "ext", mode="external", qubits=2, layers=3)
        report = run_pipeline(parse_config_file(cfg))
        best = report["best"]
        assert best["pca_components"] is None
        assert best["pca_components_effective"] is None
        assert 0.0 <= best["accuracy"] <= 1.0

    def test_external_mode_wrong_width_is_reported(self, tmp_path, capsys):
        csv_path = tmp_path / "bad.csv"
        header = ",".join([f"f{i}" for i in range(63)] + ["label"])
        csv_path.write_text(header + "\n" + ",".join(["0.1"] * 63) + ",0\n")
        cfg = small_run_config(tmp_path, csv_path, "bad", mode="external")
        code = main(["run", "--config", str(cfg)])
        assert code == 2
        err = capsys.readouterr().err.strip().splitlines()
        parsed = json.loads(err[-1])
        assert parsed["error"] == "dataset-width"
        assert "63" in parsed["detail"]

    def test_external_mode_non_numeric_value_is_reported(self, tmp_path, capsys):
        csv_path = tmp_path / "bad.csv"
        header = ",".join([f"f{i}" for i in range(64)] + ["label"])
        rows = [["0.1"] * 64, ["0.2"] * 63 + ["high"]]
        csv_path.write_text(header + "\n" + "\n".join(",".join(r) + ",0" for r in rows) + "\n")
        cfg = small_run_config(tmp_path, csv_path, "bad", mode="external")
        assert main(["run", "--config", str(cfg)]) == 2
        parsed = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert parsed == {
            "error": "dataset-format", "detail": f"{csv_path}: row 3: non-numeric feature value"
        }

    def test_degenerate_split_rejected_before_evolving(self, tmp_path, capsys, monkeypatch):
        # 4 + 4 rows at test_fraction 0.1 leave no test row
        csv_path = tmp_path / "tiny.csv"
        header = ",".join([f"f{i}" for i in range(64)] + ["label"])
        rng = np.random.default_rng(17)
        rows = [",".join(f"{v:.6f}" for v in rng.normal(size=64)) + f",{k % 2}" for k in range(8)]
        csv_path.write_text(header + "\n" + "\n".join(rows) + "\n")
        cfg = small_run_config(tmp_path, csv_path, "tiny", mode="external", test_fraction=0.1)
        evaluated = []
        monkeypatch.setattr(evolve, "evaluate_fitness", lambda *a: evaluated.append(a))
        assert main(["run", "--config", str(cfg)]) == 2
        parsed = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert parsed["error"] == "input"
        assert "test_fraction 0.1" in parsed["detail"] and "{0: 4, 1: 4}" in parsed["detail"]
        assert evaluated == []


class TestCommands:
    def test_run_command_exit_zero(self, tmp_path, capsys):
        dataset = make_image_tree(tmp_path / "data")
        cfg = small_run_config(tmp_path, dataset, "cmd", generations=2, baseline="false")
        assert main(["run", "--config", str(cfg)]) == 0
        assert "run complete" in capsys.readouterr().out

    def test_failing_evaluation_exits_with_its_genome_and_writes_nothing(
        self, tmp_path, capsys, monkeypatch
    ):
        dataset = make_image_tree(tmp_path / "data")
        cfg = small_run_config(tmp_path, dataset, "fail")
        evaluated = []
        real_evaluate = evolve.evaluate_fitness

        def spy(ind, data, config):
            evaluated.append((ind.eval_id, ind.bits.copy()))
            return real_evaluate(ind, data, config)

        def reject(*args, **kwargs):
            raise ValueError("solver defect")

        monkeypatch.setattr(evolve, "evaluate_fitness", spy)
        monkeypatch.setattr(evolve.svm, "fit", reject)
        assert main(["run", "--config", str(cfg)]) == 2
        parsed = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert parsed["error"] == "input"
        # the first evaluation's error stops the run
        assert len(evaluated) == 1
        eval_id, bits = evaluated[0]
        assert parsed["detail"] == f"evaluation {eval_id} ({bits_to_line(bits)}): solver defect"
        for name in ("report.json", "history.csv", "archive.json"):
            assert not (tmp_path / "fail" / name).exists()

    @pytest.mark.parametrize("problem", ["missing", "syntax"])
    def test_unreadable_config_fails(self, tmp_path, capsys, problem):
        cfg = tmp_path / "c.cfg"
        if problem == "syntax":
            write_config(cfg, mode="pca", dataset=tmp_path, output_dir=tmp_path / "out")
            cfg.write_text(cfg.read_text() + "seed 7\n")
        assert main(["run", "--config", str(cfg)]) == 2
        parsed = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert parsed == {
            "missing": {"error": "config-missing", "detail": f"config file not found: {cfg}"},
            "syntax": {"error": "config-syntax", "detail": "line 5: expected 'key = value'"},
        }[problem]
        assert not (tmp_path / "out").exists()

    def test_unexpected_error_exits_one_as_internal(self, tmp_path, capsys, monkeypatch):
        dataset = make_image_tree(tmp_path / "data")
        cfg = small_run_config(tmp_path, dataset)

        def defect(config):
            raise RuntimeError("unexpected defect")

        monkeypatch.setattr(cli, "prepare_data", defect)
        assert main(["run", "--config", str(cfg)]) == 1
        parsed = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert parsed == {"error": "internal", "detail": "RuntimeError: unexpected defect"}

    def test_inspect_prints_circuit(self, tmp_path, capsys):
        dataset = make_image_tree(tmp_path / "data")
        cfg = small_run_config(tmp_path, dataset, "i", layers=1)
        genome = "0000000" + "0000111" + "1010000"  # header=1 comp; Rx(x0*pi); CNOT
        assert main(["inspect", "--genome", genome, "--config", str(cfg)]) == 0
        fields, _, circuit = capsys.readouterr().out.partition("\n")
        record = json.loads(fields)
        assert sorted(record) == [
            "accuracy", "bitstring", "complexity", "objective_balance",
            "pca_components", "pca_components_effective",
        ]
        assert record["bitstring"] == genome
        assert record["pca_components"] == record["pca_components_effective"] == 1
        assert record["complexity"] == 1.5
        assert 0.0 <= record["accuracy"] <= 1.0
        assert record["objective_balance"] == 1.5 + 1.5 * record["accuracy"] ** 2
        assert "Rx(x0·π)" in circuit and "●" in circuit

    @pytest.mark.parametrize("mode", ["pca", "external"])
    def test_inspect_prints_each_archive_record(self, tmp_path, capsys, mode, two_gauss_dataset):
        if mode == "pca":
            # 12 training rows: a header asking for more than 11 components uses 11
            dataset = make_image_tree(tmp_path / "data")
        else:
            dataset = tmp_path / "features.csv"
            x, y01 = two_gauss_dataset
            header = ",".join([f"f{i}" for i in range(64)] + ["label"])
            rows = [",".join(map(str, row)) + f",{label}" for row, label in zip(x[:60], y01[:60])]
            dataset.write_text(header + "\n" + "\n".join(rows) + "\n")
        cfg = small_run_config(tmp_path, dataset, mode=mode, generations=6, baseline="false")
        assert main(["run", "--config", str(cfg)]) == 0
        archive = json.loads((tmp_path / "out" / "archive.json").read_text())
        if mode == "pca":
            assert any(r["pca_components_effective"] < r["pca_components"] for r in archive)
        capsys.readouterr()
        for record in archive:
            assert main(["inspect", "--genome", record["bitstring"], "--config", str(cfg)]) == 0
            fields, _, circuit = capsys.readouterr().out.partition("\n")
            assert {**json.loads(fields), "circuit": circuit} == {
                **record, "circuit": record["circuit"] + "\n"
            }

    def test_inspect_wrong_length_fails(self, tmp_path, capsys, monkeypatch):
        dataset = make_image_tree(tmp_path / "data")
        cfg = small_run_config(tmp_path, dataset, "i", layers=1)

        def no_data(config):
            raise AssertionError("inspect read the dataset")

        monkeypatch.setattr(cli, "prepare_data", no_data)
        assert main(["inspect", "--genome", "010", "--config", str(cfg)]) == 2
        assert "genome-length" in capsys.readouterr().err

    def test_inspect_without_its_dataset_fails(self, tmp_path, capsys):
        cfg = small_run_config(tmp_path, tmp_path / "missing", "i", layers=1)
        assert main(["inspect", "--genome", "0" * 21, "--config", str(cfg)]) == 2
        parsed = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert parsed["error"] == "dataset-missing"
        assert "does not exist" in parsed["detail"]

    def test_baseline_command(self, tmp_path, capsys):
        dataset = make_image_tree(tmp_path / "data")
        cfg = small_run_config(tmp_path, dataset, "bl")
        assert main(["baseline", "--config", str(cfg)]) == 0
        payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert 0.0 <= payload["accuracy"] <= 1.0
        assert (tmp_path / "bl" / "baseline.json").is_file()

    @pytest.mark.parametrize("command", ["run", "baseline"])
    def test_unusable_output_dir_fails_before_any_work(self, tmp_path, capsys, monkeypatch, command):
        dataset = make_image_tree(tmp_path / "data")
        blocker = tmp_path / "blocker"
        blocker.write_text("a regular file\n")
        cfg = small_run_config(tmp_path, dataset, output_dir=blocker / "out")
        calls = []
        for name in ("prepare_data", "run_ga"):
            monkeypatch.setattr(cli, name, lambda *a, _name=name, **k: calls.append(_name))
        assert main([command, "--config", str(cfg)]) == 2
        parsed = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert parsed["error"] == "output-dir"
        assert "blocker" in parsed["detail"]
        assert calls == []

    @pytest.mark.parametrize("mode", ["pca", "external"])
    def test_dataset_of_the_wrong_kind_fails_before_any_work(self, tmp_path, capsys, mode):
        image_tree = make_image_tree(tmp_path / "data")
        feature_file = tmp_path / "features.csv"
        feature_file.write_text("f0,label\n0.1,0\n")
        dataset, kind = (feature_file, "directory") if mode == "pca" else (image_tree, "file")
        cfg = small_run_config(tmp_path, dataset, mode=mode)
        assert main(["run", "--config", str(cfg)]) == 2
        parsed = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert parsed["error"] == "dataset-missing"
        assert f"is not a {kind}" in parsed["detail"]
        assert not (tmp_path / "out").exists()


# tracemalloc peak of prepare_data on a PCA tree of 64 x 64 images, as a
# multiple of the readable pixel matrix's bytes, as (readable images,
# unreadable files, bound). Each bound is the measured peak plus ~10%, so a
# second full-size matrix, or a copy of either block, fails it.
# - 60 images (45 training rows, so all 44 components are read). Measured:
#   1.85 with the rows reordered, standardized and centered in place, so the
#   pixel matrix and the 44 d-wide components are the peak; 2.58 when the
#   split, the standardization and the PCA centering each copied their rows.
# - 200 images (150 training rows, so a header reads 64 of 149 components).
#   Measured: 1.41 in place; 2.12 with those copies.
# - The same 200 images plus one unreadable file. Measured: 1.41 with the
#   (files x d) matrix shrunk in place; 2.02 when the readable rows were
#   copied out of it.
SETUP_PEAK_CASES = [(60, 0, 2.05), (200, 0, 1.55), (200, 1, 1.55)]


def arrays_reachable(obj, seen=None):
    """Every numpy array reachable from obj through dataclass fields,
    containers and array bases."""
    seen = set() if seen is None else seen
    if id(obj) in seen:
        return
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        yield obj
        if obj.base is not None:
            yield from arrays_reachable(obj.base, seen)
    elif dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            yield from arrays_reachable(getattr(obj, f.name), seen)
    elif isinstance(obj, dict):
        for value in obj.values():
            yield from arrays_reachable(value, seen)
    elif isinstance(obj, (list, tuple)):
        for value in obj:
            yield from arrays_reachable(value, seen)


class TestPrepareData:
    def test_standardization_fits_on_train_rows_only(self, tmp_path, monkeypatch):
        dataset = make_image_tree(tmp_path / "data")  # 12 training rows: r_max = 11
        config = parse_config_file(small_run_config(tmp_path, dataset))
        fits = []
        real_fit = evolve.pca_fit

        def spy_fit(train, r):
            seen = np.array(train, copy=True)  # the fit consumes its input
            model = real_fit(train, r)
            fits.append((seen, model.components.shape[0]))
            return model

        monkeypatch.setattr(evolve, "pca_fit", spy_fit)
        prepared = prepare_data(config)
        assert [r for _, r in fits] == [11]
        (train, _), = fits
        assert train.shape == (12, config.image_size**2)
        assert train.min() >= -1.0
        assert train.max() <= 1.0
        varying = train.max(axis=0) > train.min(axis=0)
        assert np.all(train.min(axis=0)[varying] == -1.0)
        assert np.all(train.max(axis=0)[varying] == 1.0)
        data = prepared.eval_data
        assert data.mode is EncodingMode.PCA_HEADER
        assert data.x_train.shape == (12, 11) and data.x_test.shape == (4, 11)

    @pytest.mark.parametrize("n_samples", [200, 60], ids=["n_train>d", "n_train<d"])
    def test_external_features_survive_the_run_and_its_baseline(
        self, tmp_path, two_gauss_dataset, monkeypatch, n_samples
    ):
        # 200 rows leave 150 training rows, more than the 64 features, and 60
        # leave 45, fewer: the baseline's PCA consumes its input on both shapes
        x, y01 = two_gauss_dataset
        csv_path = tmp_path / "features.csv"
        header = ",".join([f"f{i}" for i in range(64)] + ["label"])
        lines = [",".join(map(str, row)) + f",{label}" for row, label in zip(x, y01)][:n_samples]
        csv_path.write_text(header + "\n" + "\n".join(lines))
        config = parse_config_file(small_run_config(tmp_path, csv_path, mode="external"))
        assert config.baseline
        used = []
        real_prepare = cli.prepare_data

        def spy_prepare(c):
            used.append(real_prepare(c))
            return used[-1]

        monkeypatch.setattr(cli, "prepare_data", spy_prepare)
        run_pipeline(config)
        fresh = real_prepare(config).eval_data
        (prepared,) = used
        for name in ("x_train", "y_train", "x_test", "y_test"):
            got, want = getattr(prepared.eval_data, name), getattr(fresh, name)
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), name

    def test_external_mode_keeps_features_and_fits_no_pca(
        self, tmp_path, two_gauss_dataset, monkeypatch
    ):
        x, y01 = two_gauss_dataset
        csv_path = tmp_path / "features.csv"
        header = ",".join([f"f{i}" for i in range(64)] + ["label"])
        rows = [",".join(str(v) for v in row) + f",{label}" for row, label in zip(x[:60], y01[:60])]
        csv_path.write_text(header + "\n" + "\n".join(rows))
        config = parse_config_file(small_run_config(tmp_path, csv_path, mode="external"))
        fits = []
        monkeypatch.setattr(evolve, "pca_fit", lambda train, r: fits.append(r))
        data = prepare_data(config).eval_data
        assert fits == [] and data.mode is EncodingMode.FIXED_FEATURES
        assert data.x_train.shape == (45, 64)
        assert data.x_train.min() >= -1.0 and data.x_train.max() <= 1.0

    def test_setup_memory_is_bounded_and_no_pixel_matrix_survives(self, tmp_path):
        d = 64 * 64
        for n_images, n_unreadable, bound in SETUP_PEAK_CASES:
            name = f"{n_images}_{n_unreadable}"
            dataset = make_image_tree(tmp_path / f"data{name}", per_class=n_images // 2, size=64)
            for k in range(n_unreadable):
                (dataset / "a_negative" / f"img{k:02d}_broken.pgm").write_bytes(b"NOTPGM")
            config = parse_config_file(
                small_run_config(tmp_path, dataset, f"out{name}", image_size=64)
            )
            pixel_bytes = n_images * d * 8  # the pixel matrix is n_images x d float64
            prepare_data(config)  # warm-up: imports and first-call caches
            tracemalloc.start()
            try:
                prepared = prepare_data(config)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak <= bound * pixel_bytes, (n_images, n_unreadable, peak / pixel_bytes)
            assert all(arr.ndim < 2 or arr.shape[1] != d for arr in arrays_reachable(prepared))
