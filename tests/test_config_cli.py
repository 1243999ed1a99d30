"""Config validation and the command-line entry point, including exit codes."""

import copy
import csv
import json
import math
import os
import random
import subprocess
import sys
import warnings
from pathlib import Path

import jsonschema
import pytest

import modeheat
from modeheat.config import CONFIG_SCHEMA, KEYWORDS, config_from_dict, load_config
from modeheat.errors import ConfigError
from modeheat import cli, config, experiments

REPO = Path(__file__).resolve().parents[1]
CONFIG_DIR = REPO / "configs"

GOOD_DOC = {
    "experiment": "paper_numbers",
    "model": {
        "oscillators": [
            {
                "label": "A",
                "mass": 1e-12,
                "omega": 2 * math.pi * 1e5,
                "gamma": 13.08,
                "bath_temperature": 300.0,
            }
        ]
    },
    "sim": {"dt": 5.0025e-3, "n_steps": 100, "seed": 1, "allow_large_step": True},
    "analysis": {
        "reference": {
            "mode_flux_w": 6.5e-21,
            "mode_gap_k": 18.0,
            "mode_gamma_per_s": 13.08,
            "bulk_flux_w": 3.5e-6,
            "bulk_delta_t_k": 0.02,
            "bulk_thermal_resistance_k_per_w": 5710.0,
        }
    },
    "output": {"formats": ["csv"]},
}


def _write(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


# -- schema and loading ------------------------------------------------------------


def test_config_from_dict_happy_path():
    cfg = config_from_dict(copy.deepcopy(GOOD_DOC))
    assert cfg.experiment == "paper_numbers"
    assert cfg.model.oscillators[0].gamma == 13.08
    assert cfg.sim["seed"] == 1
    assert cfg.output["formats"] == ["csv"]


@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: d.__setitem__("experiment", "warp_drive"),
        # only paper_numbers may omit the model
        lambda d: (d.__setitem__("experiment", "equipartition"), d.pop("model")),
        lambda d: d["model"]["oscillators"][0].__setitem__("mass", -1.0),
        lambda d: d["model"]["oscillators"][0].pop("gamma"),
        lambda d: d.__setitem__("frobnicate", 1),
        lambda d: d["sim"].__setitem__("dt", 0),
        lambda d: d["sim"].__setitem__("unknown_knob", 3),
        lambda d: d["output"].__setitem__("formats", ["yaml"]),
        # the sweep names its checks by the ratio, so a repeat would repeat them
        lambda d: d["analysis"].__setitem__("g_over_gamma", [1.0, 1.0]),
    ],
)
def test_config_from_dict_rejects_bad_documents(mutate):
    doc = copy.deepcopy(GOOD_DOC)
    mutate(doc)
    with pytest.raises(ConfigError) as got:
        config_from_dict(doc)
    # the message names the error jsonschema.validate would raise
    with pytest.raises(jsonschema.ValidationError) as expected:
        jsonschema.validate(doc, CONFIG_SCHEMA)
    assert str(got.value) == f"config does not match the schema: {expected.value.message}"


def test_config_schema_passes_its_metaschema():
    # loads validate with a validator built once and skip this check
    jsonschema.validators.validator_for(CONFIG_SCHEMA).check_schema(CONFIG_SCHEMA)


# -- the schema interpreter against jsonschema --------------------------------------

SHIPPED_TEXTS = [path.read_text() for path in sorted(CONFIG_DIR.glob("*.json"))]


def _property_names(schema):
    for name, subschema in schema.get("properties", {}).items():
        yield name
        yield from _property_names(subschema)
    for key in ("items", "additionalProperties", "if", "else"):
        if isinstance(schema.get(key), dict):
            yield from _property_names(schema[key])


# keys that a mutation adds: every name the schema knows, at any level, and some it does not
MUTATION_KEYS = sorted(set(_property_names(CONFIG_SCHEMA)) | {"frobnicate", "A", "Z", ""})
# values that a mutation sets or adds: bools next to 0 and 1, 1.0, bounds and their
# neighbours, enum members and strangers, empty and repeated lists, objects
MUTATION_VALUES = [
    None, True, False, 0, 1, 2, -1, 0.5, 1.0, 2.0, 0.9, 0.95, 1e-12, -0.0,
    "", "A", "B", "hann", "rectangular", "csv", "json", "yaml", "paper_numbers", "spectrum",
    [], ["A"], ["A", "B"], ["A", "A"], ["csv", "csv"], [1.0, 2.0], [1.0, 1.0], [1, 1.0],
    [True, 1], [False, 0], [0.5, 0], [[1], [1]],
    {}, {"A": {}}, {"velocity_gain": True}, {"Z": {"noise_psd": -1}},
]


def _containers(node):
    yield node
    for child in node.values() if isinstance(node, dict) else node:
        if isinstance(child, (dict, list)):
            yield from _containers(child)


def _mutate(doc, rng):
    """Set a value, drop a key or an item, add a key or an item, or repeat an item,
    in an object or array picked anywhere in ``doc``."""
    target = rng.choice(list(_containers(doc)))
    keys = list(target) if isinstance(target, dict) else list(range(len(target)))
    op = rng.randrange(4)
    value = copy.deepcopy(rng.choice(MUTATION_VALUES))
    if op == 0 and keys:
        target[rng.choice(keys)] = value
    elif op == 1 and keys:
        target.pop(rng.choice(keys))
    elif isinstance(target, dict):
        target[rng.choice(MUTATION_KEYS)] = value
    else:
        target.append(copy.deepcopy(rng.choice(target)) if target and op == 3 else value)


def _schema_verdict(doc):
    """None if ``config_from_dict`` accepts ``doc``'s schema, else the message it raises."""
    try:
        config_from_dict(doc)
    except ConfigError as exc:
        prefix = "config does not match the schema: "
        return str(exc).removeprefix(prefix) if str(exc).startswith(prefix) else None
    return None


def test_schema_verdicts_match_jsonschema_on_mutated_configs():
    # 20 000 seeded documents, one to three mutations of a shipped config each; every
    # verdict and message must be best_match's over jsonschema's own Draft 7 validator
    reference = jsonschema.Draft7Validator(CONFIG_SCHEMA)
    rng = random.Random(20191219)
    mismatches, rejected = [], 0
    for _ in range(20_000):
        doc = json.loads(rng.choice(SHIPPED_TEXTS))
        for _ in range(rng.randint(1, 3)):
            _mutate(doc, rng)
        best = jsonschema.exceptions.best_match(reference.iter_errors(doc))
        expected = None if best is None else best.message
        rejected += expected is not None
        if _schema_verdict(doc) != expected:
            mismatches.append((doc, expected, _schema_verdict(doc)))
    assert not mismatches, mismatches[:3]
    # both verdicts are well represented
    assert 1000 < rejected < 19_000, rejected


def test_schema_errors_on_one_path_prefer_a_schema_whose_type_the_value_fails(monkeypatch):
    # With additionalProperties ahead of if/else, a document without a model and with
    # an unknown key gives two errors at the root; best_match takes else's, whose
    # schema has no type, over the root schema's, whose type the document matches.
    reordered = {k: v for k, v in CONFIG_SCHEMA.items() if k not in ("if", "else")}
    reordered.update({"if": CONFIG_SCHEMA["if"], "else": CONFIG_SCHEMA["else"]})
    monkeypatch.setattr(config, "CONFIG_SCHEMA", reordered)
    doc = {"experiment": "spectrum", "frobnicate": 1}
    best = jsonschema.exceptions.best_match(jsonschema.Draft7Validator(reordered).iter_errors(doc))
    assert best.message == "'model' is a required property"
    with pytest.raises(ConfigError) as got:
        config_from_dict(doc)
    assert str(got.value) == f"config does not match the schema: {best.message}"


def _unimplemented(schema):
    """The keywords of ``schema`` and its subschemas that the interpreter lacks."""
    missing = set(schema) - KEYWORDS - {"$schema", "$id", "title"}
    for subschema in schema.get("properties", {}).values():
        missing |= _unimplemented(subschema)
    for key in ("items", "additionalProperties", "if", "else"):
        if isinstance(schema.get(key), dict):
            missing |= _unimplemented(schema[key])
    return missing


def test_schema_uses_only_keywords_the_interpreter_implements():
    # a keyword it does not know would otherwise go unchecked
    assert _unimplemented(CONFIG_SCHEMA) == set()
    edited = copy.deepcopy(CONFIG_SCHEMA)
    edited["properties"]["sim"]["properties"]["dt"]["multipleOf"] = 1e-6
    edited["then"] = {"required": ["analysis"]}
    assert _unimplemented(edited) == {"multipleOf", "then"}


def test_load_config_errors(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "absent.json")
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(broken)


def test_shipped_schema_file_matches_source():
    on_disk = json.loads((REPO / "docs" / "config_schema.json").read_text())
    assert on_disk == CONFIG_SCHEMA


@pytest.mark.parametrize(
    "name",
    [
        "equipartition.json",
        "cold_damping.json",
        "coupled_transfer.json",
        "spectrum.json",
        "strong_coupling_sweep.json",
        "paper_numbers.json",
    ],
)
def test_shipped_configs_validate(name):
    cfg = load_config(CONFIG_DIR / name)
    assert cfg.experiment == name.removesuffix(".json")


@pytest.mark.parametrize(
    "mutate",
    [
        lambda m: m.__setitem__("couplings", [{"pair": ["A", "Z"], "spring_constant": 1e-4}]),
        lambda m: m.__setitem__("feedbacks", {"Z": {"velocity_gain": -1e-12}}),
    ],
    ids=["coupling", "feedback"],
)
def test_cli_model_naming_an_unknown_oscillator_exits_2(tmp_path, capsys, mutate):
    # schema-valid, but the label is checked only when the model is built
    doc = json.loads((CONFIG_DIR / "coupled_transfer.json").read_text())
    mutate(doc["model"])
    out_dir = tmp_path / "out"
    assert cli.run(_write(tmp_path, doc), out=out_dir) == 2
    err = capsys.readouterr().err
    assert "code=2 invalid model" in err and "'Z'" in err
    assert not (out_dir / "verdict.json").exists()


# -- CLI ---------------------------------------------------------------------------


def test_cli_version_and_schema(capsys):
    assert cli.main(["version"]) == 0
    out = capsys.readouterr().out
    assert modeheat.__version__ in out
    assert cli.main(["schema"]) == 0
    out = capsys.readouterr().out
    assert json.loads(out) == CONFIG_SCHEMA


_IMPORT_BOUNDARY_PROBE = """
import glob, json, os, sys, tempfile, warnings
import modeheat

assert "numpy" not in sys.modules
assert [m for m in sys.modules if m.startswith("modeheat.")] == []
import modeheat.cli
from modeheat.config import load_config

LAYERS = ("modeheat.langevin", "modeheat.spectra", "modeheat.steady", "modeheat.experiments")
UNUSED = LAYERS + ("modeheat.fluxlab", "modeheat.tables", "concurrent.futures")

def loaded(names=("scipy.linalg", "jsonschema")):
    return [m for m in names if m in sys.modules]

configs = sorted(glob.glob(sys.argv[1]))
assert len(configs) == 6, configs
for path in configs:
    load_config(path)
assert not loaded(UNUSED), loaded(UNUSED)
assert modeheat.cli.main(["schema"]) == 0
with tempfile.TemporaryDirectory() as out:
    bad = os.path.join(out, "bad.json")
    with open(bad, "w") as f:
        json.dump({"experiment": "warp_drive"}, f)
    assert modeheat.cli.run(bad, out=out) == 2
assert "numpy" not in sys.modules
# version prints numpy's and scipy's versions, so it imports both
assert modeheat.cli.main(["version"]) == 0
assert not loaded(LAYERS), loaded(LAYERS)
assert not loaded(), loaded()
with tempfile.TemporaryDirectory() as out:
    assert modeheat.cli.run(sys.argv[2], out=out) == 0
assert not loaded(), loaded()
model = modeheat.SystemModel(oscillators=(modeheat.OscillatorSpec("A", 1e-12, 1e3, 10.0, 300.0),))
modeheat.steady_state(model)
with warnings.catch_warnings():
    warnings.simplefilter("ignore")
    modeheat.simulate(model, modeheat.SimConfig(dt=1e-5, n_steps=10, seed=1, burn_in=0))
assert loaded() == ["scipy.linalg"], loaded()
"""

# Run in a fresh interpreter, so that no submodule is loaded before the first access.
_LAZY_EXPORTS_PROBE = """
import importlib, sys
import modeheat

assert "modeheat.steady" not in sys.modules
assert modeheat.steady is sys.modules["modeheat.steady"]
for name in ("stedy_state", "stedy"):
    try:
        getattr(modeheat, name)
    except AttributeError:
        pass
    else:
        raise AssertionError(name)
assert set(modeheat.__all__) <= set(dir(modeheat))
namespace = {}
exec("from modeheat import *", namespace)
assert set(modeheat.__all__) <= set(namespace)
for home, names in modeheat._EXPORTS.items():
    module = importlib.import_module("modeheat." + home)
    for name in names:
        value = getattr(modeheat, name)
        assert value is getattr(module, name) is namespace[name], name
        assert getattr(value, "__module__", module.__name__) == module.__name__, name
assert namespace["__version__"] == modeheat.__version__
"""


def test_cli_loads_scipy_linalg_only_where_used_and_never_jsonschema():
    # import modeheat loads no numpy and no submodule; load_config only the
    # config and model layers, and neither it, schema nor a config that fails
    # validation loads numpy; version no numerical layer; none of them, nor
    # the paper_numbers run, which solves nothing, loads scipy.linalg or
    # jsonschema; a solve and a simulation load scipy.linalg alone.  The
    # package's public names load from their home modules at first access.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [os.path.dirname(os.path.dirname(modeheat.__file__)), env.get("PYTHONPATH")])
    )
    for probe, args in [
        (_IMPORT_BOUNDARY_PROBE,
         [str(CONFIG_DIR / "*.json"), str(CONFIG_DIR / "paper_numbers.json")]),
        (_LAZY_EXPORTS_PROBE, []),
    ]:
        result = subprocess.run(
            [sys.executable, "-c", probe, *args],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert result.returncode == 0, result.stderr


@pytest.mark.parametrize("threads", [0, -2])
def test_cli_threads_below_one_exits_2(tmp_path, capsys, threads):
    out_dir = tmp_path / "out"
    code = cli.main(["run", str(CONFIG_DIR / "cold_damping.json"), "--out", str(out_dir),
                     "--threads", str(threads)])
    assert code == 2
    assert f"code=2 --threads must be >= 1, got {threads}" in capsys.readouterr().err
    assert not out_dir.exists()


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_cli_seed_override_out_of_range_names_the_option(tmp_path, capsys, seed):
    out_dir = tmp_path / "out"
    code = cli.main(["run", str(_write(tmp_path, copy.deepcopy(GOOD_DOC))), "--out", str(out_dir),
                     "--seed", str(seed)])
    assert code == 2
    assert f"code=2 --seed must fit in 64 bits, got {seed}" in capsys.readouterr().err
    assert not out_dir.exists()


@pytest.mark.parametrize("under", [False, True], ids=["existing_file", "under_a_file"])
def test_cli_out_that_cannot_be_a_directory_exits_2(tmp_path, capsys, under):
    blocker = tmp_path / "file"
    blocker.write_text("")
    out = blocker / "sub" if under else blocker
    assert cli.run(CONFIG_DIR / "paper_numbers.json", out=out) == 2
    assert f"code=2 cannot create output directory {out}: " in capsys.readouterr().err


def test_cli_config_that_is_not_utf8_exits_2(tmp_path, capsys):
    # UTF-16 with a byte-order mark, as some editors and shells write text
    path = tmp_path / "config.json"
    path.write_bytes(b"\xff\xfe" + json.dumps(GOOD_DOC).encode("utf-16-le"))
    assert cli.run(path, out=tmp_path / "out") == 2
    assert f"code=2 config {path} is not UTF-8 text: " in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_config_seed_out_of_range_names_the_sim_block(tmp_path, capsys):
    doc = json.loads((CONFIG_DIR / "cold_damping.json").read_text())
    doc["sim"]["seed"] = 2**64
    assert cli.run(_write(tmp_path, doc), out=tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert f"code=2 invalid sim block: seed must fit in 64 bits, got {2**64}" in err


def test_cli_integer_too_long_to_parse_exits_2(tmp_path, capsys):
    # int() refuses more than 4300 digits with a ValueError that is not a JSONDecodeError
    doc = copy.deepcopy(GOOD_DOC)
    doc["sim"]["n_steps"] = "@"
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc).replace('"@"', "1" * 5000))
    assert cli.run(path, out=tmp_path / "out") == 2
    assert "code=2" in capsys.readouterr().err


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity", "1e999"])
@pytest.mark.parametrize(
    "shipped, field",
    [
        ("cold_damping", "mass"),
        ("cold_damping", "omega"),
        ("cold_damping", "gamma"),
        ("cold_damping", "bath_temperature"),
        ("spectrum", "dt"),
    ],
)
def test_cli_non_finite_number_exits_2(tmp_path, capsys, shipped, field, token):
    # json reads these tokens (and overflows 1e999) to floats that pass every bound
    doc = json.loads((CONFIG_DIR / f"{shipped}.json").read_text())
    block = doc["sim"] if field == "dt" else doc["model"]["oscillators"][0]
    block[field] = "@"
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc).replace('"@"', token))
    out_dir = tmp_path / "out"
    assert cli.run(path, out=out_dir) == 2
    err = capsys.readouterr().err
    assert "code=2" in err and f"{token} is not a finite number" in err
    assert not out_dir.exists()


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("field", ["mass", "omega", "gamma", "bath_temperature", "dt"])
def test_config_from_dict_rejects_non_finite_numbers(field, value):
    # from Python the schema sees nan and inf, which pass every bound of these
    # fields (-inf fails their lower bounds)
    doc = json.loads((CONFIG_DIR / "cold_damping.json").read_text())
    if field == "dt":
        block, where = doc["sim"], "sim"
    else:
        block, where = doc["model"]["oscillators"][0], "model/oscillators/0"
    block[field] = value
    with pytest.raises(ConfigError, match=f"{where}/{field} = {value} is not a finite number"):
        config_from_dict(doc)


def test_cli_bad_config_exits_2(tmp_path, capsys):
    doc = copy.deepcopy(GOOD_DOC)
    doc["experiment"] = "warp_drive"
    path = _write(tmp_path, doc)
    out_dir = tmp_path / "out"
    code = cli.run(path, out=out_dir)
    assert code == 2
    err = capsys.readouterr().err
    assert "code=2" in err
    assert not (out_dir / "verdict.json").exists()


def test_cli_config_that_records_nothing_exits_2(tmp_path, capsys):
    # a stride longer than the run would leave 0-row trajectories for the reductions
    doc = copy.deepcopy(GOOD_DOC)
    doc["experiment"] = "equipartition"
    doc["sim"].update(n_steps=2, record_stride=3, ensemble_size=2)
    path = _write(tmp_path, doc)
    out_dir = tmp_path / "out"
    assert cli.run(path, out=out_dir) == 2
    err = capsys.readouterr().err
    assert "code=2" in err and "record_stride" in err
    assert not (out_dir / "verdict.json").exists()


def test_cli_failed_solve_exits_3(tmp_path, capsys):
    doc = copy.deepcopy(GOOD_DOC)
    doc["experiment"] = "equipartition"
    doc["analysis"] = {}
    doc["model"]["oscillators"][0]["gamma"] = 0.0  # undamped: no steady state
    path = _write(tmp_path, doc)
    code = cli.run(path, out=tmp_path / "out")
    assert code == 3
    assert "code=3" in capsys.readouterr().err


def test_cli_failed_checks_exit_4(tmp_path, capsys):
    doc = copy.deepcopy(GOOD_DOC)
    # reference flux off by 10x: closure checks cannot pass
    doc["analysis"]["reference"]["mode_flux_w"] = 6.5e-20
    path = _write(tmp_path, doc)
    out_dir = tmp_path / "out"
    code = cli.run(path, out=out_dir)
    assert code == 4
    assert "code=4" in capsys.readouterr().err
    verdict = json.loads((out_dir / "verdict.json").read_text())
    assert verdict["verdict"] == "FAIL"
    assert any(not c["passed"] for c in verdict["checks"])


@pytest.mark.parametrize("key", ["mode_flux_w", "bulk_flux_w"])
def test_cli_paper_numbers_zero_quoted_flux_exits_2(tmp_path, capsys, key):
    # schema-valid, but the flux and delta-T ratio closures divide by it
    doc = copy.deepcopy(GOOD_DOC)
    doc["analysis"]["reference"][key] = 0
    out_dir = tmp_path / "out"
    assert cli.run(_write(tmp_path, doc), out=out_dir) == 2
    err = capsys.readouterr().err
    assert "code=2 invalid analysis block" in err and key in err
    assert not (out_dir / "verdict.json").exists()


def test_cli_only_paper_numbers_runs_without_a_model(tmp_path, capsys):
    # paper_numbers never reads its model: without the block it writes the
    # same files, byte for byte
    with_model, without_model = tmp_path / "with", tmp_path / "without"
    assert cli.run(_write(tmp_path, copy.deepcopy(GOOD_DOC), "a.json"), out=with_model) == 0
    doc = copy.deepcopy(GOOD_DOC)
    doc.pop("model")
    assert cli.run(_write(tmp_path, doc, "b.json"), out=without_model) == 0
    outputs = json.loads((with_model / "manifest.json").read_text())["outputs"]
    assert outputs == json.loads((without_model / "manifest.json").read_text())["outputs"]
    for name in outputs:
        assert (with_model / name).read_bytes() == (without_model / name).read_bytes()
    # every other experiment runs the model, and names the missing block
    doc["experiment"] = "equipartition"
    capsys.readouterr()
    assert cli.run(_write(tmp_path, doc, "c.json"), out=tmp_path / "other") == 2
    assert "code=2 config does not match the schema: 'model' is a required property" in (
        capsys.readouterr().err
    )


def test_cli_happy_path_writes_manifest_and_verdict(tmp_path, capsys):
    path = _write(tmp_path, copy.deepcopy(GOOD_DOC))
    out_dir = tmp_path / "out"
    code = cli.run(path, seed=99, out=out_dir)
    assert code == 0
    out = capsys.readouterr().out
    assert "verdict PASS" in out

    verdict = json.loads((out_dir / "verdict.json").read_text())
    assert verdict["verdict"] == "PASS"
    assert all(c["passed"] for c in verdict["checks"])

    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["experiment"] == "paper_numbers"
    assert manifest["seed"] == 99
    assert manifest["rng"] == modeheat.RNG_ALGORITHM
    thread_vars = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    assert manifest["thread_env"] == {var: os.environ.get(var) for var in thread_vars}
    assert manifest["versions"]["modeheat"] == modeheat.__version__
    assert manifest["versions"]["python"].startswith(str(sys.version_info[0]))
    import hashlib

    assert manifest["config_sha256"] == hashlib.sha256(path.read_bytes()).hexdigest()
    for name in manifest["outputs"]:
        assert (out_dir / name).exists()
    assert "manifest.json" not in manifest["outputs"]
    assert "verdict.json" in manifest["outputs"]
    assert manifest["warnings"] == []
    # wall seconds of the experiment and of writing its files; a rerun keeps every table
    assert set(manifest["timings"]) == {"experiment_s", "write_s"}
    assert all(0 < s < 60 for s in manifest["timings"].values())
    assert cli.run(path, seed=99, out=tmp_path / "again") == 0
    tables = sorted(p.name for p in out_dir.glob("*.csv"))
    assert tables == sorted(p.name for p in (tmp_path / "again").glob("*.csv"))
    for name in tables:
        assert (out_dir / name).read_bytes() == (tmp_path / "again" / name).read_bytes()


def test_cli_json_mirroring(tmp_path):
    doc = copy.deepcopy(GOOD_DOC)
    doc["output"]["formats"] = ["csv", "json"]
    path = _write(tmp_path, doc)
    out_dir = tmp_path / "out"
    assert cli.run(path, out=out_dir) == 0
    csvs = sorted(p.name for p in out_dir.glob("*.csv"))
    assert csvs
    for name in csvs:
        mirror = out_dir / (Path(name).stem + ".json")
        assert mirror.exists()
        json.loads(mirror.read_text())  # parses


def test_cli_text_cells_are_quoted_and_mirrored_as_text(tmp_path):
    # a label holding a comma must not shift the later columns of its row, and
    # one that reads as a number must stay text in the JSON mirror
    doc = json.loads((CONFIG_DIR / "equipartition.json").read_text())
    doc["model"]["oscillators"][0]["label"] = "1"
    doc["model"]["oscillators"][1]["label"] = "B,2"
    doc["sim"].update(n_steps=200, ensemble_size=8)
    doc["output"]["formats"] = ["csv", "json"]
    out_dir = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", modeheat.LargeStepWarning)
        assert cli.run(_write(tmp_path, doc), out=out_dir) in (0, 4)
    with open(out_dir / "equipartition.csv", newline="") as f:
        rows = list(csv.reader(f))
    assert [len(row) for row in rows] == [8, 8, 8]
    assert [rows[1][0], rows[2][0]] == ["1", "B,2"]
    mirror = json.loads((out_dir / "equipartition.json").read_text())
    assert [row["oscillator"] for row in mirror] == ["1", "B,2"]


def test_cli_main_run_subcommand(tmp_path):
    path = _write(tmp_path, copy.deepcopy(GOOD_DOC))
    out_dir = tmp_path / "out"
    code = cli.main(["run", str(path), "--out", str(out_dir), "--seed", "5"])
    assert code == 0
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["seed"] == 5


def test_cli_manifest_lists_only_this_runs_outputs(tmp_path):
    # a csv-only rerun into a directory that holds JSON mirrors from an earlier
    # run must not list those mirrors as its own
    doc = copy.deepcopy(GOOD_DOC)
    doc["output"]["formats"] = ["csv", "json"]
    out_dir = tmp_path / "out"
    assert cli.run(_write(tmp_path, doc, "mirrored.json"), out=out_dir) == 0
    first = json.loads((out_dir / "manifest.json").read_text())["outputs"]
    assert "paper_numbers.json" in first
    doc["output"]["formats"] = ["csv"]
    assert cli.run(_write(tmp_path, doc, "plain.json"), out=out_dir) == 0
    second = json.loads((out_dir / "manifest.json").read_text())["outputs"]
    assert second == ["comparison.json", "comparison.txt", "paper_numbers.csv", "verdict.json"]


def test_cli_manifest_records_the_warnings_raised(tmp_path):
    # every shipped MC config steps past the spectral step guard: the manifest
    # records the warning, and the run still shows it
    out_dir = tmp_path / "out"
    with pytest.warns(modeheat.LargeStepWarning):
        assert cli.run(CONFIG_DIR / "coupled_transfer.json", out=out_dir) == 0
    recorded = json.loads((out_dir / "manifest.json").read_text())["warnings"]
    assert [w["category"] for w in recorded] == ["LargeStepWarning"]
    assert recorded[0]["message"].startswith("dt*omega_max = ")


def _short_sweep_doc():
    doc = json.loads((CONFIG_DIR / "strong_coupling_sweep.json").read_text())
    doc["sim"].update(n_steps=200, ensemble_size=8)
    doc["analysis"].update(g_over_gamma=[10.0], psd_duration_s=4.0, psd_ensemble=2)
    return doc


def test_cli_sweep_psd_record_of_no_steps_exits_2(tmp_path, capsys):
    # schema-valid, but 1 ns at the PSD sample rate rounds to zero steps
    doc = _short_sweep_doc()
    doc["analysis"]["psd_duration_s"] = 1e-9
    out_dir = tmp_path / "out"
    assert cli.run(_write(tmp_path, doc), out=out_dir) == 2
    err = capsys.readouterr().err
    assert "code=2" in err and "n_steps" in err
    assert "invalid analysis block" in err
    # n_steps is derived; the message names the keys the user wrote
    assert "psd_duration_s" in err and "psd_sample_rate_hz" in err
    assert not (out_dir / "verdict.json").exists()


def test_cli_sweep_runs_at_the_largest_seed(tmp_path):
    # the PSD ensemble is seeded one past the run seed, wrapping at 2**64
    out_dir = tmp_path / "out"
    path = _write(tmp_path, _short_sweep_doc())
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", modeheat.LargeStepWarning)
        code = cli.main(["run", str(path), "--out", str(out_dir), "--seed", str(2**64 - 1)])
    assert code in (0, 4)
    assert json.loads((out_dir / "manifest.json").read_text())["seed"] == 2**64 - 1
    assert (out_dir / "strong_coupling_sweep.csv").exists()


@pytest.mark.parametrize("pair", [["A", "Z"], ["A", "A"]], ids=["unknown", "repeated"])
def test_cli_sweep_pair_must_name_both_oscillators_exits_2(tmp_path, capsys, monkeypatch, pair):
    def no_solve(model):
        raise AssertionError("the sweep solved a model before checking its pair")

    monkeypatch.setattr(experiments, "steady_state", no_solve)
    doc = _short_sweep_doc()
    doc["analysis"]["pair"] = pair
    out_dir = tmp_path / "out"
    assert cli.run(_write(tmp_path, doc), out=out_dir) == 2
    err = capsys.readouterr().err
    assert f"code=2 invalid analysis block: pair {pair}" in err
    assert not (out_dir / "verdict.json").exists()
