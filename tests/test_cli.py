"""Command-line interface: verbs, exit codes, file outputs, determinism."""

import argparse
import json
import os
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import hopmc
from hopmc.cli import _build_parser, main
from hopmc.integrator import IntegratorConfig, extract_stance_reference, load_trace, provenance
from hopmc.models import MODEL_NAMES, DCMotParams, make_model


def _copy_traces(trace_dir, dest, names=("musfib", "muslin", "dcmot")):
    dest.mkdir(parents=True, exist_ok=True)
    for name in names:
        for suffix in (".csv", ".meta.json"):
            shutil.copy(trace_dir / f"trace_{name}{suffix}", dest)
    return [str(dest / f"trace_{n}.csv") for n in names]


def _snapshot(directory):
    """The name and bytes of every file in ``directory``."""
    return {p.name: p.read_bytes() for p in directory.iterdir()}


class TestSimulate:
    def test_short_musfib_run(self, tmp_path, capsys):
        rc = main(["simulate", "--model", "musfib", "--duration", "2",
                   "--out", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "max height" in out
        csv = tmp_path / "trace_musfib.csv"
        lines = csv.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 2002        # header + 2001 samples
        assert lines[0] == "t,y,yd,ydd,s1,a,contact"
        meta = json.loads((tmp_path / "trace_musfib.meta.json").read_text())
        assert meta["model"] == "musfib"
        assert meta["meta"]["tol"] == 1e-10
        assert "max_step" not in meta["meta"]
        assert meta["meta"]["version"] == hopmc.__version__

    def test_config_override(self, tmp_path):
        cfg = tmp_path / "p.cfg"
        cfg.write_text("stim_base = 0.05\n", encoding="utf-8")
        rc = main(["simulate", "--model", "musfib", "--duration", "1",
                   "--out", str(tmp_path), "--config", str(cfg)])
        assert rc == 0
        meta = json.loads((tmp_path / "trace_musfib.meta.json").read_text())
        assert meta["meta"]["params"]["stim_base"] == 0.05

    def test_bad_config_key_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "p.cfg"
        cfg.write_text("warp_drive = 9\n", encoding="utf-8")
        rc = main(["simulate", "--model", "musfib", "--duration", "1",
                   "--out", str(tmp_path), "--config", str(cfg)])
        assert rc == 1
        assert "error" in capsys.readouterr().err

    def test_unallocatable_sample_grid_is_usage_error(self, tmp_path, capsys):
        # 1e18 samples are more than the address space holds, so the
        # allocation fails at once
        out = tmp_path / "out"
        rc = main(["simulate", "--model", "musfib", "--duration", "1e15", "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("hopmc: error: t_end = 1000000000000000.0 s needs "
                              "1000000000000000001 samples")
        assert not out.exists()

    def test_unknown_model_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--model", "pogo", "--out", str(tmp_path)])
        assert exc.value.code == 1

    def test_dcmot_reuses_cached_musfib_trace(self, trace_dir, tmp_path):
        _copy_traces(trace_dir, tmp_path, names=("musfib",))
        rc = main(["simulate", "--model", "dcmot", "--duration", "1",
                   "--out", str(tmp_path)])
        assert rc == 0
        trace = load_trace(tmp_path / "trace_dcmot.csv")
        assert trace.sensor_names == ("y", "yd")
        assert len(trace) == 1001
        # the exact stance path has no tolerances or step size to report
        assert "tol" not in trace.meta
        # reference extracted from the trace in --out and written with its hash,
        # the digest of the one made in memory
        assert (tmp_path / "reference_stance.csv").exists()
        meta = json.loads((tmp_path / "reference_stance.meta.json").read_text())
        assert meta["source_trace"] == "trace_musfib.csv"
        in_memory = load_trace(trace_dir / "trace_dcmot.csv").meta["reference_sha256"]
        assert meta["reference_sha256"] == in_memory
        assert trace.meta["reference_sha256"] == in_memory

    def test_stale_reference_in_out_is_not_used(self, trace_dir, tmp_path):
        # a reference_stance.csv left in --out by another musfib run, here a
        # 2 s one, is overwritten by the stance of the trace_musfib.csv there
        # and never read
        short = tmp_path / "short"
        assert main(["simulate", "--model", "musfib", "--duration", "2",
                     "--out", str(short)]) == 0
        out, clean = tmp_path / "out", tmp_path / "clean"
        for directory in (out, clean):
            _copy_traces(trace_dir, directory, names=("musfib",))
        stale = extract_stance_reference(load_trace(short / "trace_musfib.csv"))
        stale.to_csv(out / "reference_stance.csv")
        fresh = trace_dir / "reference_stance.csv"
        assert (out / "reference_stance.csv").read_bytes() != fresh.read_bytes()
        for directory in (out, clean):
            assert main(["simulate", "--model", "dcmot", "--duration", "1",
                         "--out", str(directory)]) == 0
        assert _snapshot(out) == _snapshot(clean)
        assert (out / "reference_stance.csv").read_bytes() == fresh.read_bytes()
        meta = json.loads((out / "reference_stance.meta.json").read_text())
        assert meta["reference_sha256"] == load_trace(out / "trace_dcmot.csv").meta[
            "reference_sha256"]

    def test_dcmot_voltage_bound_breach_is_numerical_failure(self, trace_dir, tmp_path,
                                                             capsys):
        cfg = tmp_path / "p.cfg"
        cfg.write_text("volt_max = 10\n", encoding="utf-8")
        out = tmp_path / "out"
        _copy_traces(trace_dir, out, names=("musfib",))
        rc = main(["simulate", "--model", "dcmot", "--duration", "1", "--out", str(out),
                   "--config", str(cfg)])
        assert rc == 2
        assert "dcmot" in capsys.readouterr().err
        assert not (out / "trace_dcmot.csv").exists()

    @pytest.mark.parametrize("config, reason", [
        ("volt_max = 10", "stance input"),
        ("kp = 1e200", "non-finite stance state"),
    ], ids=["volt_max", "kp"])
    def test_failed_dcmot_run_writes_nothing(self, trace_dir, tmp_path, capsys, config,
                                             reason):
        # not even the stance reference it took from the musfib trace
        out = tmp_path / "out"
        _copy_traces(trace_dir, out, names=("musfib",))
        cfg = tmp_path / "p.cfg"
        cfg.write_text(config + "\n", encoding="utf-8")
        kept = _snapshot(out)
        rc = main(["simulate", "--model", "dcmot", "--duration", "1", "--out", str(out),
                   "--config", str(cfg)])
        assert rc == 2
        assert reason in capsys.readouterr().err
        assert _snapshot(out) == kept

    def test_dcmot_without_musfib_trace_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "out"
        rc = main(["simulate", "--model", "dcmot", "--duration", "1", "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err.splitlines() == [
            f"hopmc: error: no {out / 'trace_musfib.csv'}: run 'hopmc simulate --model "
            f"musfib' into {out} first, or use 'hopmc report'"]
        assert not out.exists()

    def test_dcmot_refuses_a_trace_of_another_model(self, trace_dir, tmp_path, capsys):
        # a muslin trace under the musfib trace's name is not a musfib stance
        out = tmp_path / "out"
        out.mkdir()
        for suffix in (".csv", ".meta.json"):
            shutil.copy(trace_dir / f"trace_muslin{suffix}", out / f"trace_musfib{suffix}")
        kept = _snapshot(out)
        rc = main(["simulate", "--model", "dcmot", "--duration", "1", "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err.splitlines() == [
            f"hopmc: error: {out / 'trace_musfib.csv'}: holds a trace of model 'muslin', "
            f"not 'musfib'"]
        assert _snapshot(out) == kept

    def test_dcmot_with_shared_mass_at_its_default(self, trace_dir, tmp_path):
        cfg = tmp_path / "p.cfg"
        cfg.write_text("mass = 80\n", encoding="utf-8")
        default, configured = tmp_path / "default", tmp_path / "configured"
        for out, extra in ((default, []), (configured, ["--config", str(cfg)])):
            _copy_traces(trace_dir, out, names=("musfib",))
            assert main(["simulate", "--model", "dcmot", "--duration", "1", "--out", str(out),
                         *extra]) == 0
        assert _snapshot(configured) == _snapshot(default)

    def test_simulate_and_report_build_the_same_motor(self, tmp_path):
        # the motor that simulate builds from the musfib trace in --out is the
        # one report builds from its own musfib trace, under the same config
        cfg = tmp_path / "p.cfg"
        cfg.write_text("mass = 70\n", encoding="utf-8")
        sim, rep = tmp_path / "sim", tmp_path / "rep"
        for model in ("musfib", "dcmot"):
            assert main(["simulate", "--model", model, "--duration", "2", "--out", str(sim),
                         "--config", str(cfg)]) == 0
        assert main(["report", "--duration", "2", "--out", str(rep),
                     "--config", str(cfg)]) == 0
        names = [f"{stem}{suffix}" for stem in ("trace_musfib", "trace_dcmot", "reference_stance")
                 for suffix in (".csv", ".meta.json")]
        assert _snapshot(sim) == {name: (rep / name).read_bytes() for name in names}

    def test_deterministic_outputs(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            rc = main(["simulate", "--model", "musfib", "--duration", "1",
                       "--out", str(out)])
            assert rc == 0
        assert (a / "trace_musfib.csv").read_bytes() == (b / "trace_musfib.csv").read_bytes()
        assert (a / "trace_musfib.meta.json").read_bytes() == \
            (b / "trace_musfib.meta.json").read_bytes()


class TestInadmissibleSettings:
    # each is refused before any run: exit 1, the key named, --out untouched
    @pytest.mark.parametrize("argv, config, named", [
        (["simulate", "--model", "musfib", "--duration", "1"], "f_max = nan", "f_max = nan"),
        (["simulate", "--model", "muslin", "--duration", "1"], "mass = nan", "mass = nan"),
        (["simulate", "--model", "musfib", "--duration", "1"], "l_opt = 0", "l_opt = 0.0"),
        (["simulate", "--model", "musfib", "--duration", "1"], "reflex_gain = nan",
         "reflex_gain = nan"),
        (["simulate", "--model", "musfib", "--duration", "1"], "reflex_gain = inf",
         "reflex_gain = inf"),
        (["report", "--duration", "2"], "act_tau = inf", "act_tau = inf"),
        (["report", "--duration", "nan"], None, "t_end = nan"),
        (["report", "--duration", "inf"], None, "t_end = inf"),
    ], ids=["f_max-nan", "mass-nan", "l_opt-0", "reflex_gain-nan", "reflex_gain-inf",
            "act_tau-inf", "duration-nan", "duration-inf"])
    def test_refused_naming_the_key(self, tmp_path, capsys, argv, config, named):
        out = tmp_path / "out"
        out.mkdir()
        (out / "notes.txt").write_text("kept\n", encoding="utf-8")
        kept = _snapshot(out)
        if config is not None:
            cfg = tmp_path / "p.cfg"
            cfg.write_text(config + "\n", encoding="utf-8")
            argv = [*argv, "--config", str(cfg)]
        rc = main([*argv, "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err.startswith(f"hopmc: error: {named}: must be finite")
        assert _snapshot(out) == kept

    def test_run_shorter_than_one_sample_period(self, tmp_path, capsys):
        out = tmp_path / "out"
        rc = main(["simulate", "--model", "musfib", "--duration", "0.0005", "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err.splitlines() == [
            "hopmc: error: t_end = 0.0005 s is shorter than one sample period of the "
            "1000 Hz grid; a trace needs two samples"]
        assert not out.exists()


class TestMeasure:
    def test_table_and_state_series(self, trace_dir, tmp_path, capsys):
        paths = _copy_traces(trace_dir, tmp_path)
        rc = main(["measure", *paths, "--state-series", "--out", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "bins=300" in out
        assert "MC_W" in out and "MC_MI" in out
        for name in ("musfib", "muslin", "dcmot"):
            assert name in out
            state = tmp_path / f"mc_state_{name}.csv"
            lines = state.read_text(encoding="utf-8").splitlines()
            assert lines[0] == "t,mc_w,mc_mi,mc_w_smooth,mc_mi_smooth,y,contact"
            assert len(lines) == 8001    # header + T-1 rows

    def test_custom_bins_in_header(self, trace_dir, tmp_path, capsys):
        paths = _copy_traces(trace_dir, tmp_path, names=("musfib",))
        rc = main(["measure", *paths, "--bins", "150"])
        assert rc == 0
        assert "bins=150" in capsys.readouterr().out

    def test_duplicate_models_rejected(self, trace_dir, tmp_path, capsys):
        paths = _copy_traces(trace_dir, tmp_path, names=("musfib",))
        rc = main(["measure", paths[0], paths[0]])
        assert rc == 1
        assert "duplicate" in capsys.readouterr().err

    def test_missing_file(self, tmp_path, capsys):
        rc = main(["measure", str(tmp_path / "nope.csv")])
        assert rc == 1

    def test_symbol_space_beyond_int64_is_refused(self, trace_dir, tmp_path, capsys):
        # 3e6 bins per world channel make 2.7e19 world symbols, which int64
        # would wrap into wrong measures
        paths = _copy_traces(trace_dir, tmp_path, names=("musfib",))
        kept = _snapshot(tmp_path)
        rc = main(["measure", *paths, "--bins", "3000000", "--state-series",
                   "--out", str(tmp_path)])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            "hopmc: error: the symbol space of bases (3000000, 3000000, 3000000) "
            "overflows int64; use fewer bins"]
        assert _snapshot(tmp_path) == kept


def _edited(change):
    """A sidecar damage: parse the text, apply ``change``, dump it again."""
    def damage(text):
        sidecar = json.loads(text)
        change(sidecar)
        return json.dumps(sidecar)
    return damage


class TestMalformedSidecar:
    @pytest.mark.parametrize("verb", ["measure", "sweep-bins"])
    @pytest.mark.parametrize("damage, named", [
        (_edited(lambda sidecar: sidecar.pop("sensor_names")),
         "sidecar lacks the key 'sensor_names'"),
        (_edited(lambda sidecar: sidecar["events"][0].update(spin=1.0)),
         "event has the unknown key 'spin'"),
        (_edited(lambda sidecar: sidecar.update(sensor_names=5)),
         "sidecar key 'sensor_names' is not a list of strings"),
        (_edited(lambda sidecar: sidecar.update(sensor_names=[1])),
         "sidecar key 'sensor_names' is not a list of strings"),
        (_edited(lambda sidecar: sidecar.update(events=5)), "sidecar key 'events' is not a list"),
        (_edited(lambda sidecar: sidecar.update(model=5)), "sidecar key 'model' is not a string"),
        (_edited(lambda sidecar: sidecar.update(action_kind=None)),
         "sidecar key 'action_kind' is not a string"),
        (_edited(lambda sidecar: sidecar.update(meta=[])), "sidecar key 'meta' is not an object"),
        (_edited(lambda sidecar: sidecar["events"][0].update(kind=1)),
         "event key 'kind' is not a string"),
        (_edited(lambda sidecar: sidecar["events"][0].update(t="0.1")),
         "event key 't' is not a number"),
        (_edited(lambda sidecar: sidecar["events"][0].update(yd=True)),
         "event key 'yd' is not a number"),
        (lambda text: "{", "not valid JSON: Expecting property name enclosed in double "
                           "quotes: line 1 column 2 (char 1)"),
    ], ids=["no-sensor-names", "event-extra-key", "sensor-names-int", "sensor-names-ints",
            "events-int", "model-int", "action-kind-null", "meta-list", "event-kind-int",
            "event-t-string", "event-yd-bool", "not-json"])
    def test_is_a_usage_error(self, trace_dir, tmp_path, capsys, verb, damage, named):
        paths = _copy_traces(trace_dir, tmp_path)
        side = tmp_path / "trace_musfib.meta.json"
        side.write_text(damage(side.read_text()), encoding="utf-8")
        kept = _snapshot(tmp_path)
        argv = (["measure", *paths, "--state-series"] if verb == "measure"
                else ["sweep-bins", *paths, "--bins", "50,100"])
        rc = main([*argv, "--out", str(tmp_path)])
        assert rc == 1
        assert capsys.readouterr().err.splitlines() == [f"hopmc: error: {side}: {named}"]
        assert _snapshot(tmp_path) == kept


    @pytest.mark.parametrize("verb", ["measure", "sweep-bins"])
    def test_unparsable_csv_is_named(self, trace_dir, tmp_path, capsys, verb):
        paths = _copy_traces(trace_dir, tmp_path)
        csv = tmp_path / "trace_musfib.csv"
        lines = csv.read_text(encoding="utf-8").splitlines()
        lines[3] = "a,b,c,d,e,f,g"
        csv.write_text("\n".join(lines) + "\n", encoding="utf-8")
        kept = _snapshot(tmp_path)
        argv = (["measure", *paths, "--state-series"] if verb == "measure"
                else ["sweep-bins", *paths, "--bins", "50,100"])
        rc = main([*argv, "--out", str(tmp_path)])
        assert rc == 1
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith(f"hopmc: error: {csv}: could not convert string 'a'")
        assert _snapshot(tmp_path) == kept


def _damage_sample(csv, row, column, value):
    """Write ``value`` into the named column of sample ``row`` of a trace CSV;
    returns the file line it sits on."""
    lines = csv.read_text(encoding="utf-8").splitlines()
    cells = lines[row + 1].split(",")
    cells[lines[0].split(",").index(column)] = value
    lines[row + 1] = ",".join(cells)
    csv.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return row + 2


def _in_last_stance(trace):
    """The index of the 1 kHz sample midway through the last complete stance."""
    liftoff = max(e.t for e in trace.events if e.kind == "liftoff")
    touchdown = max(e.t for e in trace.events if e.kind == "touchdown" and e.t < liftoff)
    return round(1000.0 * (touchdown + liftoff) / 2)


class TestNonFiniteSample:
    # a trace sample that is not finite is refused by name before any write

    @pytest.mark.parametrize("verb", ["measure", "sweep-bins"])
    @pytest.mark.parametrize("model, column, value", [
        ("musfib", "y", "nan"),
        ("muslin", "a", "inf"),
    ], ids=["musfib-y-nan", "muslin-a-inf"])
    def test_is_a_usage_error(self, trace_dir, tmp_path, capsys, verb, model, column, value):
        paths = _copy_traces(trace_dir, tmp_path)
        csv = tmp_path / f"trace_{model}.csv"
        line = _damage_sample(csv, 1234, column, value)
        kept = _snapshot(tmp_path)
        argv = (["measure", *paths, "--state-series"] if verb == "measure"
                else ["sweep-bins", *paths, "--bins", "50,100"])
        rc = main([*argv, "--out", str(tmp_path)])
        assert rc == 1
        assert capsys.readouterr().err.splitlines() == [
            f"hopmc: error: {csv}: line {line}, column '{column}': non-finite sample {value}"]
        assert _snapshot(tmp_path) == kept

    def test_in_the_stance_dcmot_tracks(self, trace_dir, tmp_path, capsys):
        out = tmp_path / "out"
        _copy_traces(trace_dir, out, names=("musfib",))
        csv = out / "trace_musfib.csv"
        line = _damage_sample(csv, _in_last_stance(load_trace(csv)), "y", "nan")
        kept = _snapshot(out)
        rc = main(["simulate", "--model", "dcmot", "--duration", "1", "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err.splitlines() == [
            f"hopmc: error: {csv}: line {line}, column 'y': non-finite sample nan"]
        assert _snapshot(out) == kept


class TestMalformedMotorSidecar:
    """dcmot actions are mapped with the ``volt_max`` its sidecar records;
    ``measure`` refuses one that is not a finite positive number."""

    @pytest.mark.parametrize("damage, shown", [
        (lambda meta: meta.pop("params"), "None"),
        (lambda meta: meta["params"].update(volt_max="x"), "'x'"),
        (lambda meta: meta["params"].update(volt_max=0.0), "0.0"),
        (lambda meta: meta["params"].update(volt_max=-1.0), "-1.0"),
        (lambda meta: meta["params"].update(volt_max=float("nan")), "nan"),
    ], ids=["no-params", "string", "zero", "negative", "nan"])
    def test_volt_max_is_a_usage_error(self, trace_dir, tmp_path, capsys, damage, shown):
        paths = _copy_traces(trace_dir, tmp_path)
        side = tmp_path / "trace_dcmot.meta.json"
        side.write_text(_edited(lambda sidecar: damage(sidecar["meta"]))(side.read_text()),
                        encoding="utf-8")
        kept = _snapshot(tmp_path)
        rc = main(["measure", *paths, "--state-series", "--out", str(tmp_path)])
        assert rc == 1
        assert capsys.readouterr().err.splitlines() == [
            f"hopmc: error: dcmot: params.volt_max must be a finite positive number, not {shown}"]
        assert _snapshot(tmp_path) == kept


class TestSweepBins:
    def test_sweep(self, trace_dir, tmp_path, capsys):
        paths = _copy_traces(trace_dir, tmp_path, names=("musfib", "muslin"))
        rc = main(["sweep-bins", *paths, "--bins", "50,100", "--out", str(tmp_path)])
        assert rc == 0
        lines = (tmp_path / "measures_vs_bins.csv").read_text().splitlines()
        assert lines[0] == "model,bins,mc_w,mc_mi"
        assert len(lines) == 1 + 2 * 2   # header + 2 bins x 2 models

    def test_single_bin_count_rejected(self, trace_dir, tmp_path, capsys):
        paths = _copy_traces(trace_dir, tmp_path, names=("musfib",))
        rc = main(["sweep-bins", *paths, "--bins", "300", "--out", str(tmp_path)])
        assert rc == 1
        assert "two bin counts" in capsys.readouterr().err

    def test_empty_bin_list_rejected(self, trace_dir, tmp_path):
        paths = _copy_traces(trace_dir, tmp_path, names=("musfib",))
        assert main(["sweep-bins", *paths, "--bins", ",", "--out", str(tmp_path)]) == 1

    def test_garbage_bins_rejected(self, trace_dir, tmp_path):
        paths = _copy_traces(trace_dir, tmp_path, names=("musfib",))
        assert main(["sweep-bins", *paths, "--bins", "50,many", "--out", str(tmp_path)]) == 1

    def test_refused_bin_count_writes_nothing(self, trace_dir, tmp_path, capsys):
        # every bin count is measured before the table or a file is written
        paths = _copy_traces(trace_dir, tmp_path, names=("musfib",))
        out = tmp_path / "new"
        rc = main(["sweep-bins", *paths, "--bins", "0,300", "--out", str(out)])
        assert rc == 1
        captured = capsys.readouterr()
        assert "bin count must be >= 1" in captured.err
        assert captured.out == ""
        assert not out.exists()


class TestReport:
    def test_sidecars_hold_each_trace_provenance(self, tmp_path):
        # each key of --config reaches the models that define it, and each
        # sidecar records how its trace was made
        cfg_file = tmp_path / "p.cfg"
        cfg_file.write_text("f_max = 2600\n", encoding="utf-8")
        out = tmp_path / "out"
        assert main(["report", "--duration", "2", "--out", str(out),
                     "--config", str(cfg_file)]) == 0
        meta = {name: json.loads((out / f"trace_{name}.meta.json").read_text())["meta"]
                for name in MODEL_NAMES}
        reference = extract_stance_reference(load_trace(out / "trace_musfib.csv"))
        cfg = IntegratorConfig(t_end=2.0)
        for name in MODEL_NAMES:
            overrides = None if name == "dcmot" else {"f_max": 2600.0}
            record = provenance(make_model(name, overrides, reference), cfg)
            assert {key: meta[name].get(key) for key in record} == record
            assert meta[name]["t_end"] == 2.0 and meta[name]["version"] == hopmc.__version__
        for name in ("musfib", "muslin"):
            assert meta[name]["params"]["f_max"] == 2600.0
            assert meta[name]["stepper"] == "dp45+flight" and meta[name]["tol"] == 1e-10
        assert "f_max" not in meta["dcmot"]["params"] and "tol" not in meta["dcmot"]
        assert meta["dcmot"]["stepper"] == "exact-stance"
        side = json.loads((out / "reference_stance.meta.json").read_text())
        assert meta["dcmot"]["reference_sha256"] == side["reference_sha256"]

    def test_trace_in_out_is_replaced(self, tmp_path):
        # report simulates every model and overwrites what --out holds
        out, fresh = tmp_path / "out", tmp_path / "fresh"
        assert main(["simulate", "--model", "musfib", "--duration", "1.5",
                     "--out", str(out)]) == 0
        assert main(["report", "--duration", "2", "--out", str(out)]) == 0
        assert load_trace(out / "trace_musfib.csv").meta["t_end"] == 2.0
        assert main(["report", "--duration", "2", "--out", str(fresh)]) == 0
        assert _snapshot(out) == _snapshot(fresh)

    @pytest.mark.parametrize("argv, reason", [
        (["--bins", "0"], "bin count must be >= 1"),
    ], ids=["bins-0"])
    def test_refused_setting_writes_nothing(self, tmp_path, capsys, argv, reason):
        # the discretization and measures are made before any write
        out = tmp_path / "out"
        rc = main(["report", "--duration", "2", "--out", str(out), *argv])
        assert rc == 1
        assert reason in capsys.readouterr().err
        assert not out.exists()

    # the shared mass is the only body-mass setting, so no model knows these
    @pytest.mark.parametrize("key", ["warp_drive", "body_mass", "base_body_mass"])
    def test_config_key_no_model_knows_writes_nothing(self, tmp_path, capsys, key):
        cfg = tmp_path / "p.cfg"
        cfg.write_text(f"{key} = 0.6784\n", encoding="utf-8")
        out = tmp_path / "out"
        out.mkdir()
        rc = main(["report", "--duration", "2", "--out", str(out), "--config", str(cfg)])
        assert rc == 1
        assert f"unknown parameter(s) for every model: ['{key}']" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    def test_shared_mass_at_its_default_changes_nothing(self, tmp_path):
        # the motor scales the shared mass, so naming its default is the default run
        cfg = tmp_path / "p.cfg"
        cfg.write_text("mass = 80\n", encoding="utf-8")
        default, configured = tmp_path / "default", tmp_path / "configured"
        assert main(["report", "--duration", "2", "--out", str(default)]) == 0
        assert main(["report", "--duration", "2", "--out", str(configured),
                     "--config", str(cfg)]) == 0
        assert _snapshot(configured) == _snapshot(default)

    def test_shared_mass_scales_every_hopper(self, tmp_path):
        cfg = tmp_path / "p.cfg"
        cfg.write_text("mass = 70\n", encoding="utf-8")
        out = tmp_path / "out"
        rc = main(["report", "--duration", "2", "--out", str(out), "--config", str(cfg)])
        assert rc == 0
        mass = {name: load_trace(out / f"trace_{name}.csv").meta["params"]["mass"]
                for name in ("musfib", "muslin", "dcmot")}
        p = DCMotParams()
        assert mass == {"musfib": 70.0, "muslin": 70.0,
                        "dcmot": 70.0 * (p.gear_ratio * p.nominal_torque / p.f_max_ref)}


class TestOptions:
    # every verb's option strings: adding or removing a CLI option changes
    # this table in the same diff
    OPTIONS = {
        "simulate": {"--model", "--duration", "--out", "--config"},
        "measure": {"--bins", "--out", "--state-series"},
        "sweep-bins": {"--bins", "--out"},
        "report": {"--out", "--duration", "--bins", "--config", "--state-series"},
    }

    @pytest.mark.parametrize("verb", OPTIONS)
    def test_option_strings_are_pinned(self, verb):
        verbs = next(a for a in _build_parser()._actions
                     if isinstance(a, argparse._SubParsersAction)).choices
        assert verbs.keys() == self.OPTIONS.keys()
        options = {s for a in verbs[verb]._actions for s in a.option_strings}
        assert options - {"-h", "--help"} == self.OPTIONS[verb]

    @pytest.mark.parametrize("verb", ["measure", "report"])
    def test_smooth_block_is_a_usage_error(self, trace_dir, tmp_path, capsys, verb):
        # the smoothed columns use the fixed block 5
        traces = _copy_traces(trace_dir, tmp_path, names=("musfib",)) if verb == "measure" else []
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main([verb, *traces, "--state-series", "--smooth-block", "4", "--out", str(out)])
        assert exc.value.code == 1
        assert "unrecognized arguments: --smooth-block 4" in capsys.readouterr().err
        assert not out.exists()


class TestBenchmarkHooks:
    # bench/tracer.py wraps functions by their names in hopmc.cli; a refactor
    # that stops calling one of them through that name fails here
    @staticmethod
    def _tracer(monkeypatch):
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
        from tracer import Tracer
        return Tracer()

    def test_tracer_sees_the_cli_calls_it_patches(self, trace_dir, tmp_path, monkeypatch):
        tracer = self._tracer(monkeypatch)
        paths = [str(trace_dir / f"trace_{n}.csv") for n in ("musfib", "muslin", "dcmot")]
        with tracer.installed():
            rc = main(["measure", *paths, "--state-series", "--out", str(tmp_path)])
        assert rc == 0
        calls = Counter(span["name"] for span in tracer.spans)
        assert calls["measures.compute_measures"] == 3
        assert calls["measures.mc_w_state"] == 3
        # the domains once, and each discrete trace once for both outputs
        assert calls["discretize.compute_domains"] == 1
        assert calls["discretize.build_discrete_trace"] == 3

    def test_report_reads_back_no_trace_it_wrote(self, tmp_path, monkeypatch):
        # the dcmot reference comes from the musfib trace in memory
        tracer = self._tracer(monkeypatch)
        out = tmp_path / "out"
        with tracer.installed():
            rc = main(["report", "--duration", "2", "--out", str(out)])
        assert rc == 0
        calls = Counter(span["name"] for span in tracer.spans)
        assert calls["integrator.load_trace"] == 0
        assert calls["integrator.extract_stance_reference"] == 1
        assert calls["integrator.Trace.save"] == 3
        assert (out / "reference_stance.csv").exists()

    def test_second_report_reads_back_nothing(self, tmp_path, monkeypatch):
        # a report into an --out that already holds its traces simulates again
        tracer = self._tracer(monkeypatch)
        out = tmp_path / "out"
        argv = ["report", "--duration", "2", "--state-series", "--out", str(out)]
        assert main(argv) == 0
        first = _snapshot(out)
        with tracer.installed():
            rc = main(argv)
        assert rc == 0
        calls = Counter(span["name"] for span in tracer.spans)
        assert calls["integrator.load_trace"] == 0
        assert calls["integrator.integrate"] == 3
        assert _snapshot(out) == first


class TestImportBudget:
    # the runtime needs numpy alone; scipy is the tests' oracle
    @staticmethod
    def _python(code, *args):
        src = str(Path(hopmc.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        return subprocess.run([sys.executable, "-c", code, *args], env=env,
                              capture_output=True, text=True)

    def test_cli_loads_no_scipy(self):
        run = self._python("import hopmc.cli, sys; "
                           "print(' '.join(m for m in sys.modules if m.startswith('scipy')))")
        assert run.returncode == 0, run.stderr
        assert run.stdout.strip() == ""

    def test_report_runs_with_scipy_blocked(self, tmp_path):
        code = (
            "import sys\n"
            "class Block:\n"
            "    def find_spec(self, name, path=None, target=None):\n"
            "        if name.startswith('scipy'):\n"
            "            raise ImportError('blocked: ' + name)\n"
            "sys.meta_path.insert(0, Block())\n"
            "from hopmc.cli import main\n"
            "sys.exit(main(sys.argv[1:]))\n")
        run = self._python(code, "report", "--duration", "2", "--state-series",
                           "--out", str(tmp_path))
        assert run.returncode == 0, run.stderr
        assert (tmp_path / "measures.json").exists()
