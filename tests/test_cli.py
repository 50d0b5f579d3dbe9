import csv
import gc
import hashlib
import importlib.util
import io
import json
import math
import os
import signal
import subprocess
import sys
import tempfile
import weakref
from collections import Counter
from contextlib import contextmanager, redirect_stderr
from dataclasses import fields, is_dataclass
from pathlib import Path
from typing import Literal, get_args, get_origin, get_type_hints

import numpy  # noqa: F401  (before starkrylov.cli: this process keeps OpenBLAS's default threads)
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import starkrylov
from starkrylov import cli, krylov, mirror, statevec
from starkrylov import config as config_module
from starkrylov.cli import cmd_converge, main
from starkrylov.config import ConfigError, InitialStateSpec, RunConfig
from starkrylov.hamiltonian import SpinHamiltonian
from starkrylov.lattice import build_star
from starkrylov.mirror import ShotPlan


def run(tmp_path, command, config=None, extra=()):
    args = [command, "--out", str(tmp_path / "out")]
    if config is not None:
        path = tmp_path / "config.json"
        path.write_text(config if isinstance(config, str) else json.dumps(config))
        args += ["--config", str(path)]
    args += list(extra)
    return main(args)


def test_spectrum_command(tmp_path):
    assert run(tmp_path, "spectrum") == 0
    out = tmp_path / "out"
    assert (out / "spectrum.csv").exists()
    summary = json.loads((out / "spectrum_summary.json").read_text())
    assert abs(summary["ground_energy"] + 12.0) < 1e-9
    assert summary["sector_ground_energies"]["4"] == pytest.approx(12.0)
    rows = (out / "spectrum.csv").read_text().splitlines()
    assert len(rows) == 1 + 256


def test_spectrum_12_spin(tmp_path):
    assert run(tmp_path, "spectrum", {"n_triangles": 6}) == 0
    summary = json.loads((tmp_path / "out" / "spectrum_summary.json").read_text())
    assert abs(summary["ground_energy"] + 18.0) < 1e-9


def test_dt_bound_refused(tmp_path, capsys):
    assert run(tmp_path, "overlaps", {"dt": 0.3}) == 2
    assert "spectral bound" in capsys.readouterr().err


def test_unknown_config_key_refused(tmp_path):
    assert run(tmp_path, "overlaps", {"lattice": "star"}) == 2


BIG = 10 ** 400  # a JSON integer past float range: float(BIG) raises OverflowError


@pytest.mark.parametrize("config", [
    {"magnet": {"solver": "nope"}},
    {"magnet": {"solver": "uvqpe_floquet"}},
    {"magnet": {"dt": 0.5}},
    {"magnet": {"dt": 0}},
    {"magnet": {"solver": "odmd", "n_steps": 1}},
    {"initial": {"kind": "dressed", "bogus": 1}},
    {"shots": {"total": 100, "fractions": [0.5, 0.2, 0.2]}},
    {"shots": {"total": 0}},
    {"noise": {"p_pauli": 1.5}},
    {"initial": {"kind": "sector", "sz": 9}},
    '{"steps": 5,',
    {"evolver": "floquet", "noise": {"enable_twirl": True, "twirl_angle": 0.3}},
    {"noise": {"p_pauli": 0.001}},
    {"steps": 2.5},
    {"steps": True},
    {"n_triangles": 4.0},
    {"realizations": 2.5},
    {"dt": "x"},
    {"seed": "x", "shots": {"total": 100}},
    {"deltas": ["x"]},
    {"eigenvalue_band": [0.5]},
    {"magnet": {"n_steps": 10.5}},
    {"deltas": [0.0]},
    '{"deltas": [NaN]}',
    {"deltas": [1e-3, 1e-15]},
    {"magnet": {"delta": 0.0}},
    {"odmd_window": 50, "steps": 10},
    {"steps": 1},
    {"magnet": None},
    {"initial": {"cz_bonds": 5}},
    {"initial": {"cz_bonds": [["a", "b"]]}},
    {"deltas": [2.0]},
    {"magnet": {"delta": 2.0}},
    {"allocation": {"f1_grid": [1.5]}},
    {"allocation": {"m_totals": [0]}},
    {"allocation": {"n_times": 0}},
    {"allocation": {"realizations": 0}},
    {"allocation": {"f1_grid": []}},
    {"seed": -1},
    {"seed": 2 ** 64},
    {"n_triangles": 8},
    {"n_triangles": 2},
    {"evolver": "floquet", "noise": {"p_pauli": 0.01}},
    {"noise": {"enable_postselect": True}},
    {"evolver": "trotter", "noise": {"enable_twirl": True}},
    {"initial": {"kind": "sector", "sz": 1}, "evolver": "floquet", "steps": 2,
     "shots": {"total": 100}, "noise": {"enable_postselect": True}},
    {"initial": {"kind": "sector", "sz": 4}, "steps": 2, "shots": {"total": 100}},
    {"h_field": BIG},
    {"dt": BIG},
    {"magnet": {"dt": BIG}},
    {"evolver": "floquet", "steps": 2, "shots": {"total": 40},
     "noise": {"enable_twirl": True, "twirl_angle": BIG}},
    {"shots": {"total": 40, "fractions": [BIG, 0.3, 0.3]}},
    {"allocation": {"f1_grid": [BIG]}},
    {"shots": {"total": BIG}},
    {"allocation": {"m_totals": [BIG]}},
    {"shots": {"total": 10 ** 10, "fractions": [0.4, 0.3, 0.2999999995]}},
    {"shots": {"total": 10 ** 10, "fractions": [0.4, 0.3, 0.3000000005]}},
    ("--threads", "0"),
    ("--threads", "-3"),
    {"initial": {"kind": "sector", "sz": 1}, "steps": 6, "shots": {"total": 200000},
     "noise": {"enable_twirl": True}},
    {"evolver": "floquet", "steps": 2, "shots": {"total": 40},
     "noise": {"enable_twirl": True, "twirl_angle": 1.7e308}},
], ids=["magnet-solver-unknown", "magnet-solver-floquet", "magnet-dt-bound",
        "magnet-dt-zero", "magnet-n-steps", "nested-unknown-key",
        "shots-fractions-sum", "shots-total-zero", "noise-p-above-one",
        "sector-sz-outside-table", "malformed-json", "twirl-angle-dephases-reference",
        "noise-with-exact-evolver", "steps-float", "steps-bool", "n-triangles-float",
        "realizations-float", "dt-string", "seed-string", "deltas-string",
        "eigenvalue-band-single", "magnet-n-steps-float", "delta-zero", "delta-nan",
        "delta-below-floor", "magnet-delta-zero", "odmd-window-above-steps",
        "steps-below-odmd-first-step", "magnet-section-null", "cz-bonds-int",
        "cz-bonds-strings", "delta-above-one", "magnet-delta-above-one",
        "allocation-f1-above-one", "allocation-m-total-zero", "allocation-n-times-zero",
        "allocation-realizations-zero", "allocation-f1-grid-empty", "seed-negative",
        "seed-above-64-bits", "n-triangles-above-qubit-cap", "n-triangles-two",
        "noise-without-shots", "postselect-without-shots", "twirl-without-shots",
        "postselect-pairing-leaves-sites-out", "sampled-state-without-dimers",
        "h-field-past-float-range", "dt-past-float-range", "magnet-dt-past-float-range",
        "twirl-angle-past-float-range", "shot-fractions-past-float-range",
        "f1-grid-past-float-range", "shot-total-past-float-range",
        "m-totals-past-float-range", "shot-fractions-split-short-of-total",
        "shot-fractions-split-past-total", "threads-zero", "threads-negative",
        "twirl-dephases-odd-sz-sector", "twirl-angle-near-float-max"])
def test_config_errors_exit_2_before_any_work(tmp_path, capsys, config):
    # a tuple row holds command-line arguments rather than a config
    extra = config if isinstance(config, tuple) else ()
    assert run(tmp_path, "magnetization", None if extra else config, extra) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not (tmp_path / "out").exists()  # refused before ED or any output


def test_twirl_from_an_odd_sz_sector_exits_2(tmp_path, capsys):
    # the default twirl angle pi/2 turns the psi0 branch of the S^z = 1
    # sector state, three down spins on 8 sites, by e^{3 i pi} against the
    # all-up branch: refused, naming the angles that keep it
    config = {"initial": {"kind": "sector", "sz": 1}, "steps": 6, "shots": {"total": 200000},
              "noise": {"enable_twirl": True}}
    assert run(tmp_path, "overlaps", config) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: twirl angle 1.5708 is not a multiple of pi/3")
    assert not (tmp_path / "out").exists()
    config["noise"]["twirl_angle"] = math.pi / 3
    config["shots"]["total"] = 300
    assert run(tmp_path, "overlaps", config) == 0


@pytest.mark.parametrize("command", ["overlaps", "converge"])
@pytest.mark.parametrize("evolver", ["exact", "trotter", "floquet"])
def test_noiseless_sampled_runs_evolve_no_circuit(tmp_path, monkeypatch, command, evolver):
    # a noiseless sampled run, twirled and post-selected, draws each
    # circuit's zero count as one binomial: it calls _noisy_pool never and
    # applies no gate inside _sample_erring.  A noisy Floquet run draws
    # pools, each a zero count and erring shots that fit its shots, and
    # applies gates there
    inside, calls, noisy_pools = [False], [], []
    kernel, sample_erring = mirror.apply_gate_amps, mirror._sample_erring
    noisy_pool = mirror._noisy_pool

    def recorded_noisy_pool(npass, shots, *args):
        pool = noisy_pool(npass, shots, *args)
        noisy_pools.append((shots, *pool))
        return pool

    def counted_kernel(amps, gate):
        if inside[0]:
            calls.append(gate)
        return kernel(amps, gate)

    def recorded(shots, n):
        inside[0] = True
        try:
            return sample_erring(shots, n)
        finally:
            inside[0] = False

    monkeypatch.setattr(mirror, "apply_gate_amps", counted_kernel)
    monkeypatch.setattr(statevec, "apply_gate_amps", counted_kernel)
    monkeypatch.setattr(mirror, "_sample_erring", recorded)
    monkeypatch.setattr(mirror, "_noisy_pool", recorded_noisy_pool)
    noise = {"enable_twirl": True, "enable_postselect": True}
    config = {"evolver": evolver, "steps": 8, "shots": {"total": 300}, "realizations": 2,
              "noise": noise}
    assert run(tmp_path, command, config) == 0
    assert calls == [] and noisy_pools == []
    if evolver == "floquet":
        noise["p_pauli"] = 0.01
        (tmp_path / "noisy").mkdir()
        assert run(tmp_path / "noisy", command, config) == 0
        assert calls and noisy_pools
        assert all(0 <= zeros <= shots - len(erring) for shots, zeros, erring in noisy_pools)


def test_undefined_estimate_exits_3(tmp_path, capsys):
    # at p = 1 every F1 shot errs, and at seed 0 post-selection discards all
    # five at step 1: the estimate has no magnitude, and the run exits 3 with
    # one line that names the step, the realization and the flags
    config = {"evolver": "floquet", "steps": 2, "shots": {"total": 5},
              "noise": {"p_pauli": 1.0, "enable_postselect": True}}
    assert run(tmp_path, "overlaps", config) == 3
    assert capsys.readouterr().err == (
        "numerical failure: estimate undefined at step 1 of realization 0: "
        "('all_shots_discarded', 'magnitude_unavailable')\n")


def test_float_fields_keep_the_value_as_given():
    # a float field takes any number that converts to a finite float, and the
    # echoed config keeps it as written; a shot total must stay exact as a float
    cfg = RunConfig.from_dict({"h_field": 10 ** 300, "dt": 1})
    assert cfg.h_field == 10 ** 300 and type(cfg.dt) is int
    assert json.loads(cfg.to_json())["h_field"] == 10 ** 300
    assert ShotPlan(2 ** 53).total == 2 ** 53
    with pytest.raises(ValueError, match="total shots"):
        ShotPlan(2 ** 53 + 1)


def test_huge_n_triangles_exits_2_before_any_star(tmp_path, capsys, monkeypatch):
    # the qubit cap is checked before build_star, whose tuples grow with n
    def no_star(n_triangles):
        raise AssertionError("build_star called")

    monkeypatch.setattr(config_module, "build_star", no_star)
    assert run(tmp_path, "spectrum", {"n_triangles": BIG}) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: n_triangles must be at most 7")
    assert err.count("\n") == 1 and "Traceback" not in err


@contextmanager
def time_limit(seconds: int):
    """Raise TimeoutError in this process once ``seconds`` have passed."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("command, config", [
    ("converge", {"steps": BIG}),
    ("converge", {"steps": 10 ** 9}),
    ("magnetization", {"magnet": {"n_steps": BIG}}),
    ("overlaps", {"realizations": BIG}),
    ("overlaps", {"realizations": 10 ** 8, "shots": {"total": 10}}),
    ("allocation", {"allocation": {"n_times": BIG}}),
    ("overlaps", {"shots": {"total": 10 ** 10}}),
    ("allocation", {"allocation": {"realizations": BIG}}),
], ids=["steps-big", "steps-1e9", "magnet-n-steps-big", "realizations-big",
        "realizations-1e8-sampled", "allocation-n-times-big", "shots-total-1e10",
        "allocation-realizations-big"])
def test_sizes_past_the_element_budget_exit_2_before_any_hamiltonian(
        tmp_path, capsys, monkeypatch, command, config):
    # each config asks for an array larger than MAX_ELEMENTS: refused from the
    # config alone, before a Hamiltonian is built or an output written
    def no_hamiltonian(*args, **kwargs):
        raise AssertionError("SpinHamiltonian built")

    monkeypatch.setattr(SpinHamiltonian, "__init__", no_hamiltonian)
    with time_limit(20):
        assert run(tmp_path, command, config) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and "too large" in err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def _big_ints(kind):
    """A JSON value of the annotation ``kind`` whose every integer is BIG, or
    None when ``kind`` holds no integer."""
    args = get_args(kind)
    if type(None) in args:  # X | None
        return _big_ints(args[0])
    if kind is int:
        return BIG
    if get_origin(kind) is tuple:
        items = [_big_ints(k) for k in (args[:1] if args[-1] is Ellipsis else args)]
        return None if None in items else items
    return None


def _integer_fields(kind=RunConfig, prefix=()):
    """(path, value) for each field of the config dataclasses that holds an
    integer, read from their annotations as ``config._parse`` reads them."""
    for f in fields(kind):
        hint = get_type_hints(kind)[f.name]
        section = next((k for k in (hint, *get_args(hint)) if is_dataclass(k)), None)
        if section is not None:
            yield from _integer_fields(section, (*prefix, f.name))
        elif _big_ints(hint) is not None:
            yield (*prefix, f.name), _big_ints(hint)


INTEGER_FIELDS = list(_integer_fields())


@pytest.mark.parametrize("path, value", INTEGER_FIELDS,
                         ids=[".".join(path) for path, _ in INTEGER_FIELDS])
def test_every_integer_field_at_10_to_the_400(tmp_path, capsys, path, value):
    # a 401-digit integer in any integer field ends each command without a
    # traceback, in time: refused (exit 2), or not read by the command (exit 0)
    assert {("steps",), ("realizations",), ("shots", "total"), ("magnet", "n_steps"),
            ("allocation", "n_times"), ("allocation", "realizations")} <= {
                p for p, _ in INTEGER_FIELDS}
    config = {}
    *sections, name = path
    leaf = config
    for section in sections:
        leaf = leaf.setdefault(section, {})
    leaf[name] = value
    for command in cli.COMMANDS:
        (tmp_path / command).mkdir()
        with time_limit(60):
            code = run(tmp_path / command, command, config)
        err = capsys.readouterr().err
        assert code in (0, 2) and "Traceback" not in err, (command, err)


JUNK = st.sampled_from([None, True, "x", math.nan, math.inf, -math.inf, BIG, -BIG, 2.5, [], {}])


def _drawn(kind, junk: bool = True):
    """A strategy of values for the annotation ``kind``, read as
    ``config._parse`` reads it: valid and boundary values (NaN and inf among
    the floats, 401-digit integers among the ints) and, with ``junk``, wrong
    types (``JUNK``) anywhere."""
    args = get_args(kind)
    if type(None) in args:  # X | None
        return st.none() | _drawn(args[0], junk)
    if is_dataclass(kind):
        hints = get_type_hints(kind)
        valid = st.fixed_dictionaries(
            {}, optional={f.name: _drawn(hints[f.name], junk) for f in fields(kind)})
    elif get_origin(kind) is tuple and args[-1] is Ellipsis:
        valid = st.lists(_drawn(args[0], junk), max_size=4)
    elif get_origin(kind) is tuple:
        valid = st.tuples(*(_drawn(k, junk) for k in args)).map(list)
    elif get_origin(kind) is Literal:
        valid = st.sampled_from(args)
    else:
        valid = {
            int: st.integers(-2, 8) | st.integers(9, 200) | st.sampled_from(
                [2 ** 53, 2 ** 53 + 1, 2 ** 64 - 1, 2 ** 64, 10 ** 9, BIG, -BIG]),
            float: st.floats() | st.sampled_from(
                [0.0, krylov.DELTA_FLOOR, 1.0, 0.1, 0.17, 0.2, math.pi / 12, 1e308, -1e308]),
            bool: st.booleans(),
            str: st.sampled_from(sorted(krylov.SOLVERS)),
        }[kind]
    return valid | JUNK if junk else valid


@settings(max_examples=250, deadline=None)
@given(st.sampled_from(sorted(cli.COMMANDS)), _drawn(RunConfig, junk=False) | _drawn(RunConfig))
def test_validate_returns_a_build_or_a_configuration_error(command, raw):
    # the exit-2 contract in process: a drawn config, valid or not, validates
    # to the build its command runs on or raises ConfigError, never another
    # exception, whichever check (a section's own, validate's or magnet's) it meets
    try:
        build = RunConfig.from_dict(raw).validate(command)
    except ConfigError:
        return
    assert isinstance(build, config_module.Build)


def _small(low: int, high: int, refused: bool):
    """An integer work field: ``low`` to ``high``, or with ``refused`` also a
    refused value (below 1, 401 digits, past 64 bits, or not an integer)."""
    valid = st.integers(low, high)
    return valid | st.integers(-1, 0) | st.sampled_from([BIG, -BIG, 2 ** 64]) | JUNK \
        if refused else valid


# configs that mostly run: a few fields, each from values a run accepts
RUNNABLE = st.fixed_dictionaries({}, optional={
    "evolver": st.sampled_from(["exact", "trotter", "floquet"]),
    "initial": st.sampled_from([{"kind": "pinwheel"}, {"kind": "sector", "sz": 2}]),
    "shots": st.fixed_dictionaries({}),
    "noise": st.fixed_dictionaries({}, optional={
        "enable_postselect": st.booleans(), "enable_twirl": st.booleans()}),
    "magnitude_source": st.sampled_from(["f1_sqrt", "eq19"]),
    "solvers": st.sampled_from([["uvqpe"], ["odmd"], ["uvqpe_floquet"]]),
    "odmd_real_part": st.booleans(),
    "reverse_trotter_groups": st.booleans(),
    "magnet": st.fixed_dictionaries({}, optional={"solver": st.sampled_from(["uvqpe", "odmd"])}),
})


@st.composite
def _small_configs(draw):
    """A config drawn as ``_drawn(RunConfig)`` draws it, or from ``RUNNABLE``,
    with its work fields small: 8 spins, at most 6 steps, 200 shots and 2
    realizations, a magnet series of at most 6 steps, an allocation of at most
    3 times, 200 shots and 2 realizations, and p at most 0.003; a drawn config
    draws them refused too."""
    refused = draw(st.booleans())
    raw = draw(_drawn(RunConfig, junk=False) | _drawn(RunConfig) if refused else RUNNABLE)
    if not isinstance(raw, dict):
        return raw
    raw.update(steps=draw(_small(2, 6, refused)), realizations=draw(_small(1, 2, refused)),
               n_triangles=draw(st.just(4) | st.sampled_from([0, 5, BIG]) | JUNK
                                if refused else st.just(4)))
    p_pauli = st.sampled_from([0.0, 0.001, 0.003])
    for section, key, work in (
            ("shots", "total", _small(1, 200, refused)),
            ("magnet", "n_steps", _small(2, 6, refused)),
            ("allocation", "n_times", _small(1, 3, refused)),
            ("allocation", "realizations", _small(1, 2, refused)),
            ("allocation", "m_totals", st.lists(_small(1, 200, refused), max_size=3)),
            ("noise", "p_pauli", p_pauli | st.sampled_from([-0.1, 1.5, math.nan])
             if refused else p_pauli)):
        if section in ("magnet", "allocation") and section not in raw:
            raw[section] = {}
        if isinstance(raw.get(section), dict):
            raw[section][key] = draw(work)
    return raw


# a file each command writes whenever it exits 0
WRITES = {"spectrum": "spectrum.csv", "overlaps": "run_config.json",
          "converge": "convergence.csv", "magnetization": "magnetization_ed.csv",
          "allocation": "allocation.csv"}


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(sorted(cli.COMMANDS)), _small_configs())
@example("converge", {"steps": BIG, "realizations": BIG, "shots": {"total": BIG}})
@example("overlaps", {"steps": 2, "shots": {"total": 200},
                      "noise": {"enable_twirl": True, "twirl_angle": 1.7e308}})
@example("allocation", {"n_triangles": 6, "initial": {"kind": "pinwheel"},
                        "allocation": {"m_totals": [100], "n_times": 1, "realizations": 1}})
def test_small_runs_exit_0_2_or_3(command, raw):
    # whole runs in process: a drawn config, valid or not, exits 0 and writes
    # its command's files, 2 with exactly one "configuration error:" line, or
    # 3, and no exception escapes.  The examples exited 1 once: 401-digit
    # integers, a twirl angle whose ratio to pi overflows, and the 12-spin
    # pinwheel allocation, whose F1 exceeded 1 by rounding
    assert set(WRITES) == set(cli.COMMANDS)
    with tempfile.TemporaryDirectory() as tmp, redirect_stderr(io.StringIO()) as err:
        code = run(Path(tmp), command, json.dumps(raw))
        written = sorted(p.name for p in (Path(tmp) / "out").glob("*"))
    assert code in (0, 2, 3), (code, err.getvalue())
    if code == 0:
        assert WRITES[command] in written
    if code == 2:
        assert err.getvalue().startswith("configuration error:")
        assert err.getvalue().count("\n") == 1


@pytest.mark.parametrize("below", [False, True], ids=["file", "path-under-file"])
def test_out_naming_a_file_exits_2(tmp_path, capsys, below):
    blocker = tmp_path / "blocker"
    blocker.write_text("kept")
    out = blocker / "out" if below else blocker
    assert main(["spectrum", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: cannot create the output directory {out}")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert blocker.read_text() == "kept"


def _fresh_interpreter(code: str, openblas_threads: str | None) -> str:
    """Standard output of ``code`` in a new interpreter that finds this package,
    with ``OPENBLAS_NUM_THREADS`` set to ``openblas_threads`` or unset."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH")]))
    if openblas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = openblas_threads
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_bench_tracer_installs_against_src():
    """bench/tracer.py wraps the package's functions and reads some names by
    attribute (``krylov.OverlapSeries.value``, ``statevec.GateOp.__post_init__``):
    it must still install on this source tree."""
    pytest.importorskip("scipy")  # the tracer also wraps scipy.linalg
    bench = Path(__file__).resolve().parents[1] / "bench"
    _fresh_interpreter("\n".join([
        "import sys", f"sys.path.insert(0, {str(bench)!r})",
        "from tracer import Tracer", "Tracer().install()",
    ]), os.environ.get("OPENBLAS_NUM_THREADS"))


def _bench_tracer():
    spec = importlib.util.spec_from_file_location(
        "bench_tracer", Path(__file__).resolve().parents[1] / "bench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def _resolve(path: str):
    """The package object at a dotted ``layer.attr...`` path."""
    layer, *attrs = path.split(".")
    obj = importlib.import_module(f"starkrylov.{layer}")
    for attr in attrs:
        obj = getattr(obj, attr)
    return obj


# span names of bench/tracer.py's SPAN_METRICS that src/ no longer has, so their
# metrics read 0; only a change to the benchmark may mend them
STALE_SPANS = ("hamiltonian.SpinHamiltonian.evolve", "statevec.apply_gate",
               "mirror.estimate_overlap", "krylov.solve")


def test_bench_tracer_names_exist_in_src():
    """The names bench/tracer.py reads, taken from the file itself and with no
    scipy: ``import starkrylov.cli`` loads every module of its ``LAYERS``, and
    every attribute path of ``COUNTED_ONLY`` and every span name of
    ``SPAN_METRICS`` but the ``STALE_SPANS`` resolves, so a rename in the
    package fails here and not first in the benchmark's traced run."""
    tracer = _bench_tracer()
    loaded = json.loads(_fresh_interpreter(
        "import json, sys, starkrylov.cli; print(json.dumps(sorted(sys.modules)))",
        os.environ.get("OPENBLAS_NUM_THREADS")))
    assert {f"starkrylov.{layer}" for layer in tracer.LAYERS} <= set(loaded)
    assert {"krylov.OverlapSeries.value", "statevec.GateOp.__post_init__"} <= set(
        tracer.COUNTED_ONLY)
    spans = [name for _, name in tracer.SPAN_METRICS if name not in STALE_SPANS]
    assert "statevec.sample_bitstrings" in spans
    for path in (*tracer.COUNTED_ONLY, *spans):
        assert callable(_resolve(path)), path


@pytest.mark.xfail(strict=True, raises=AttributeError,
                   reason="bench/tracer.py names a span that src/ no longer has")
@pytest.mark.parametrize("path", STALE_SPANS)
def test_stale_bench_tracer_span_resolves(path):
    assert path in {name for _, name in _bench_tracer().SPAN_METRICS}
    assert callable(_resolve(path))


def test_commands_run_without_scipy(tmp_path):
    """numpy is the only runtime dependency: spectrum and a short converge
    exit 0 in an interpreter where importing scipy fails."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"steps": 12, "deltas": [1e-3]}))
    script = "\n".join([
        "import sys",
        "sys.modules['scipy'] = None",
        "from starkrylov.cli import main",
        f"assert main(['spectrum', '--out', {str(tmp_path / 'spectrum')!r}]) == 0",
        f"assert main(['converge', '--config', {str(config)!r}, "
        f"'--out', {str(tmp_path / 'converge')!r}]) == 0",
        "assert 'scipy.linalg' not in sys.modules",
    ])
    _fresh_interpreter(script, os.environ.get("OPENBLAS_NUM_THREADS"))
    assert (tmp_path / "converge" / "convergence_summary.json").exists()


def test_overlaps_exact(tmp_path):
    assert run(tmp_path, "overlaps", {"steps": 10}) == 0
    rows = (tmp_path / "out" / "overlaps.csv").read_text().splitlines()
    assert rows[0].split(",")[:4] == ["k", "t", "re", "im"]
    assert len(rows) == 12  # header + s_0..s_10


def test_overlaps_floquet_writes_negative_branch(tmp_path):
    cfg = {"steps": 5, "evolver": "floquet"}
    assert run(tmp_path, "overlaps", cfg) == 0
    assert (tmp_path / "out" / "overlaps_negative.csv").exists()


def test_overlaps_sampled_deterministic(tmp_path):
    cfg = {"steps": 4, "shots": {"total": 200}, "seed": 5}
    assert run(tmp_path, "overlaps", cfg) == 0
    first = (tmp_path / "out" / "overlaps.csv").read_bytes()
    assert run(tmp_path, "overlaps", cfg) == 0
    assert (tmp_path / "out" / "overlaps.csv").read_bytes() == first


def test_missing_value_cells_pinned(tmp_path):
    # a NaN fraction or ablation error is an empty cell; convergence.csv,
    # whose every cell has an energy, writes NaN as nan; the saturated h_end is inf
    from starkrylov.magnet import MagnetizationCurve, Plateau
    from starkrylov.mirror import OverlapEstimate

    nan = float("nan")
    cli._write_overlaps(tmp_path / "o.csv", 0.1, [1.0, 0.5 - 0.25j],
                        [OverlapEstimate(0.5 - 0.25j, (0.4, nan, nan), (1, 0, 0))],
                        "sampled")
    assert (tmp_path / "o.csv").read_bytes() == (
        b"k,t,re,im,F1,F2,F3,discarded1,discarded2,discarded3,mode\r\n"
        b"0,0.000000000,1.000000000000e+00,0.000000000000e+00,,,,,,,sampled\r\n"
        b"1,0.100000000,5.000000000000e-01,-2.500000000000e-01,0.400000000,,,1,0,0,"
        b"sampled\r\n")
    cli._write_ablation(tmp_path / "a.csv", [(0.1, "both", 0.25, nan, nan, nan)])
    assert (tmp_path / "a.csv").read_bytes() == (
        b"t,mode,f1_err,f2_err,f3_err,overlap_err\r\n"
        b"0.100000000,both,2.500000000e-01,,,\r\n")
    cli._write_convergence(tmp_path / "c.csv", [("uvqpe", 0.1, 2, nan, nan, 1)])
    assert (tmp_path / "c.csv").read_bytes() == (
        b"algorithm,delta,step,energy,energy_error,retained_rank\r\n"
        b"uvqpe,0.1,2,nan,nan,1\r\n")
    cli._write_curve(tmp_path / "m.csv", MagnetizationCurve(
        (Plateau(0.0, 1.5, 0, -12.0), Plateau(1.5, math.inf, 1, -13.5))))
    assert (tmp_path / "m.csv").read_bytes() == (
        b"h_start,h_end,Sz,energy_at_h_start\r\n"
        b"0.000000000000,1.500000000000,0,-12.000000000000\r\n"
        b"1.500000000000,inf,1,-13.500000000000\r\n")


def test_converge_exact_summary(tmp_path):
    cfg = {"steps": 30, "deltas": [1e-5], "solvers": ["uvqpe"]}
    assert run(tmp_path, "converge", cfg) == 0
    out = tmp_path / "out"
    summary = json.loads((out / "convergence_summary.json").read_text())
    key = "uvqpe:delta=1e-05"
    assert summary[key]["steps_to_1e-6"] is not None
    assert abs(summary[key]["final_error"]) < 1e-6
    rows = (out / "convergence.csv").read_text().splitlines()
    assert len(rows) == 1 + 30


def test_converge_solves_each_distinct_series_once(tmp_path, monkeypatch):
    # the exact series stands for every realization, so each solver's sweep
    # gets it once; sampled realizations are distinct runs of the sweep
    sweep, calls = starkrylov.krylov.sweep, []

    def counted_sweep(algorithm, runs, steps, deltas, *args):
        calls.append((algorithm, runs, list(steps), list(deltas)))
        return sweep(algorithm, runs, steps, deltas, *args)

    monkeypatch.setattr(starkrylov.krylov, "sweep", counted_sweep)
    assert run(tmp_path, "converge", {"steps": 20, "realizations": 3}) == 0
    # one sweep per solver, each over one run, 3 deltas and every prefix length
    assert [(a, len(runs)) for a, runs, _, _ in calls] == [("uvqpe", 1), ("odmd", 1)]
    assert [len(steps) * len(deltas) for _, _, steps, deltas in calls] == [3 * 20, 3 * 19]
    summary = json.loads((tmp_path / "out" / "convergence_summary.json").read_text())
    assert summary["realizations"] == 3
    assert (tmp_path / "out" / "convergence_spread.csv").exists()
    calls.clear()
    cfg = {"steps": 6, "deltas": [0.1], "solvers": ["uvqpe"], "shots": {"total": 100},
           "realizations": 2}
    assert run(tmp_path, "converge", cfg) == 0
    assert len(calls) == 1 and calls[0][2] == list(range(1, 7))
    assert len({id(series) for series in calls[0][1]}) == 2


def test_converge_summary_counts_flags(tmp_path):
    cfg = {"steps": 6, "deltas": [1e-6], "solvers": ["uvqpe", "odmd"]}
    assert run(tmp_path, "converge", cfg) == 0
    summary = json.loads((tmp_path / "out" / "convergence_summary.json").read_text())
    assert summary["uvqpe:delta=1e-06"]["flag_counts"] == {}
    # a band that excludes the unit circle is refused by validate, so the
    # command runs directly, on the build of the valid config it differs from
    # only in the band: every cell's estimate carries the flag
    bad = RunConfig.from_dict({**cfg, "eigenvalue_band": [1.5, 2.0]})
    with pytest.raises(ConfigError, match="unit circle"):
        bad.validate()
    cmd_converge(bad, RunConfig.from_dict(cfg).validate("converge"), tmp_path)
    summary = json.loads((tmp_path / "convergence_summary.json").read_text())
    assert summary["uvqpe:delta=1e-06"]["flag_counts"] == {"no_admissible_eigenvalue": 6}
    assert summary["odmd:delta=1e-06"]["flag_counts"] == {"no_admissible_eigenvalue": 5}
    header, *rows = (tmp_path / "convergence.csv").read_text().splitlines()
    assert header == "algorithm,delta,step,energy,energy_error,retained_rank"
    assert len(rows) == 6 + 5


NOISY = {"evolver": "floquet", "steps": 2, "shots": {"total": 40},
         "noise": {"p_pauli": 0.002, "enable_postselect": True, "enable_twirl": True}}


@pytest.mark.parametrize("command, config, hamiltonians", [
    ("spectrum", {}, 1),
    ("converge", {"steps": 6, "deltas": [0.1], "realizations": 3}, 1),
    ("allocation", {"allocation": {"m_totals": [100], "n_times": 2, "realizations": 5}}, 1),
    ("overlaps", {"steps": 4}, 1),
    ("overlaps", NOISY, 1),
    ("magnetization", {}, 2),
    ("magnetization", {"magnet": {"dt": 0.2}}, 2),
], ids=["spectrum", "converge", "allocation", "overlaps-exact", "overlaps-noisy",
        "magnetization", "magnetization-magnet-dt"])
def test_each_run_builds_once(tmp_path, monkeypatch, command, config, hamiltonians):
    """The command runs on the star, Hamiltonian and initial preparation that
    validate built: one of each per run, plus the h = 0 Hamiltonian of the
    magnetization pass (``magnet.estimate_sector_energies``); ``magnet.dt`` is
    checked on the star, with no Hamiltonian of its own."""
    counts = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for module in [m for n, m in list(sys.modules.items()) if n.startswith("starkrylov")]:
        if getattr(module, "build_star", None) is build_star:
            monkeypatch.setattr(module, "build_star", counted("star", build_star))
    monkeypatch.setattr(SpinHamiltonian, "__init__",
                        counted("hamiltonian", SpinHamiltonian.__init__))
    monkeypatch.setattr(RunConfig, "initial_prep", counted("prep", RunConfig.initial_prep))
    assert run(tmp_path, command, config) == 0
    assert counts == {"star": 1, "hamiltonian": hamiltonians, "prep": 1}


def _watch_hamiltonian_eigh(monkeypatch, record) -> None:
    """Pass the result of every ``numpy.linalg.eigh`` call that the
    hamiltonian module makes to ``record``."""
    eigh = numpy.linalg.eigh

    def watched(a, *args, **kwargs):
        result = eigh(a, *args, **kwargs)
        if sys._getframe(1).f_globals["__name__"] == "starkrylov.hamiltonian":
            record(result)
        return result

    monkeypatch.setattr(numpy.linalg, "eigh", watched)


@pytest.mark.parametrize("command, config, n_eigh", [
    ("spectrum", {}, 23),
    ("spectrum", {"n_triangles": 6}, 46),
    ("converge", {"steps": 20}, 3),
    ("converge", {"n_triangles": 6, "steps": 10}, 4),
    ("converge", {"steps": 6, "shots": {"total": 100}, "realizations": 2}, 3),
    ("allocation", {"allocation": {"m_totals": [200], "f1_grid": [0.2, 1 / 3, 0.6],
                                   "n_times": 3, "realizations": 20}}, 3),
    ("overlaps", {"steps": 4}, 3),
    ("magnetization", {}, 13),
    ("magnetization", {"n_triangles": 6}, 25),
], ids=["spectrum", "spectrum-12", "converge", "converge-12", "converge-sampled",
        "allocation", "overlaps", "magnetization", "magnetization-12"])
def test_each_sector_decomposed_at_most_once(tmp_path, monkeypatch, command, config, n_eigh):
    """A Hamiltonian keeps only its sector energies, so a command that read a
    sector's energies before its series would decompose it twice: each
    command decomposes each sector of each Hamiltonian at most once, in
    ``n_eigh`` Hamiltonian-layer ``eigh`` calls, one per conjugate pair of
    momentum blocks."""
    calls, sectors = [], []
    _watch_hamiltonian_eigh(monkeypatch, calls.append)
    decompose = SpinHamiltonian._decompose

    def tracked(self, n_down):
        sectors.append((self, n_down))
        return decompose(self, n_down)

    monkeypatch.setattr(SpinHamiltonian, "_decompose", tracked)
    assert run(tmp_path, command, config) == 0
    assert len(calls) == n_eigh
    assert 0 < len(sectors) == len(set(sectors))


@pytest.mark.parametrize("command, config", [
    ("spectrum", {"n_triangles": 6}),
    ("converge", {"n_triangles": 6, "steps": 10}),
], ids=["spectrum-12", "converge-12"])
def test_no_eigenvector_outlives_its_command(tmp_path, monkeypatch, command, config):
    """With the collector off and a weak reference on every eigenvector array
    that the hamiltonian module's ``eigh`` calls return, none is alive when
    the command returns, while its Hamiltonian, which keeps the sector
    energies, still is."""
    refs, alive = [], []
    _watch_hamiltonian_eigh(monkeypatch, lambda result: refs.append(weakref.ref(result[1])))
    body = cli.COMMANDS[command]

    def watched(cfg, build, out):
        body(cfg, build, out)
        alive.append(sum(ref() is not None for ref in refs))

    monkeypatch.setitem(cli.COMMANDS, command, watched)
    gc.disable()
    try:
        assert run(tmp_path, command, config) == 0
    finally:
        gc.enable()
    assert len(refs) > 0 and alive == [0]


def test_converge_sampled_threads_match(tmp_path):
    cfg = {"steps": 12, "deltas": [0.1], "solvers": ["uvqpe"],
           "shots": {"total": 300}, "realizations": 4, "seed": 3}
    assert run(tmp_path, "converge", cfg, extra=("--threads", "1")) == 0
    serial = (tmp_path / "out" / "convergence.csv").read_bytes()
    assert run(tmp_path, "converge", cfg, extra=("--threads", "4")) == 0
    assert (tmp_path / "out" / "convergence.csv").read_bytes() == serial


def test_commands_run_on_one_blas_thread(tmp_path, monkeypatch):
    """main pins OpenBLAS to one thread for the command and restores the
    caller's count after a successful run and after a configuration error."""
    blas = cli._openblas_threads()
    if blas is None:
        pytest.skip("numpy's bundled OpenBLAS thread functions are not available")
    get, set_ = blas
    before = get()
    seen = []
    monkeypatch.setitem(cli.COMMANDS, "spectrum", lambda cfg, build, out: seen.append(get()))
    set_(2)
    try:
        assert run(tmp_path, "spectrum") == 0
        assert seen == [1] and get() == 2
        assert run(tmp_path, "spectrum", {"dt": 0.3}) == 2
        assert seen == [1] and get() == 2
    finally:
        set_(before)


@pytest.mark.parametrize("first, openblas_threads, frozen", [
    ("", None, True), ("", "2", True), ("import numpy", None, False),
], ids=["fresh", "fresh-preset-threads", "numpy-first"])
def test_main_freezes_only_a_fresh_cli_process(tmp_path, first, openblas_threads, frozen):
    """Imported before numpy, the CLI ends main with gc.freeze(), whatever
    OPENBLAS_NUM_THREADS says; a caller that loaded numpy first (this suite,
    a notebook) keeps its objects collectable.  The collector stays on."""
    code = "\n".join([
        "import gc", first, "from starkrylov.cli import main",
        "print(gc.get_freeze_count())",
        f"assert main(['spectrum', '--out', {str(tmp_path / 'out')!r}]) == 0",
        "print(gc.get_freeze_count() > 0, gc.isenabled())",
    ])
    assert _fresh_interpreter(code, openblas_threads).split() == ["0", str(frozen), "True"]


def _start_threads(first: str, openblas_threads: str | None) -> str:
    """The OpenBLAS thread count and ``OPENBLAS_NUM_THREADS`` after a new
    interpreter runs ``first`` and then imports ``starkrylov.cli``."""
    if cli._openblas_threads() is None:
        pytest.skip("numpy's bundled OpenBLAS thread functions are not available")
    return _fresh_interpreter("\n".join([
        "import os", first, "from starkrylov import cli",
        "print(cli._openblas_threads()[0](), os.environ.get('OPENBLAS_NUM_THREADS'))",
    ]), openblas_threads)


def test_package_import_loads_no_numpy():
    code = "import sys, starkrylov\nprint('numpy' in sys.modules)"
    assert _fresh_interpreter(code, None) == "False"


def test_cli_process_starts_on_one_blas_thread():
    """Imported before numpy, the CLI starts OpenBLAS on one thread and leaves
    OPENBLAS_NUM_THREADS unset again for child processes."""
    assert _start_threads("", None) == "1 None"


def test_cli_process_keeps_a_preset_blas_thread_count():
    # OpenBLAS caps the count at the CPUs present, so compare with the count a
    # process gets that loads numpy before the CLI
    started = _start_threads("", "2")
    assert started.endswith(" 2")
    assert started == _start_threads("import numpy", "2")


def test_cli_imported_after_numpy_keeps_the_blas_thread_count(blas_threads_before_pin):
    """An interpreter that loaded numpy first, as this one did, keeps its
    OpenBLAS thread count when it imports the CLI.  This process's count is
    the one from before the test's one-thread pin."""
    preset = os.environ.get("OPENBLAS_NUM_THREADS")
    started = _start_threads("import numpy", preset)
    assert started == f"{blas_threads_before_pin} {preset}"


def test_converge_floquet_solver_requires_floquet_evolver(tmp_path):
    cfg = {"solvers": ["uvqpe_floquet"], "evolver": "exact", "steps": 5}
    assert run(tmp_path, "converge", cfg) == 2


def test_magnetization_8_spin(tmp_path):
    assert run(tmp_path, "magnetization") == 0
    out = tmp_path / "out"
    summary = json.loads((out / "magnetization_summary.json").read_text())
    assert summary["unconverged_sectors"] == []
    assert summary["max_crossing_deviation"] < 1e-3
    assert (out / "magnetization_ed.csv").exists()
    assert (out / "magnetization_uvqpe.csv").exists()
    assert (out / "sectors_ed.csv").exists()
    assert (out / "sectors_uvqpe.csv").exists()
    sectors = [str(sz) for sz in range(5)]
    assert sorted(summary["sector_ranks"]) == sectors
    assert sorted(summary["sector_flags"]) == sectors
    assert all(rank >= 1 for rank in summary["sector_ranks"].values())


def test_magnetization_plateau_count_mismatch_is_inf(tmp_path, monkeypatch):
    # sector 3 raised by 5 drops a plateau: 3 solver crossings against ED's 4,
    # whose overlapping prefix alone would deviate by about 1.7
    # the CLI reads the ED energies from meta, so the fake carries the true ones
    ham = SpinHamiltonian(build_star(4))
    exact = {sz: ham.ground_state_energy(sector=float(sz)) for sz in range(5)}
    energies = {**exact, 3: exact[3] + 5.0}
    meta = {sz: {"converged": True, "exact": e, "final_error": 0.0,
                 "retained_rank": 1, "flags": ()} for sz, e in exact.items()}
    monkeypatch.setattr(starkrylov.magnet, "estimate_sector_energies",
                        lambda lattice, **kwargs: (energies, meta))
    assert run(tmp_path, "magnetization") == 0
    summary = json.loads((tmp_path / "out" / "magnetization_summary.json").read_text())
    assert len(summary["crossing_fields_ed"]) == 4
    assert len(summary["crossing_fields_uvqpe"]) == 3
    assert summary["max_crossing_deviation"] == float("inf")


def test_magnetization_numerical_failure_exit(tmp_path):
    # starving the solver leaves sectors unconverged: exit code 3
    cfg = {"magnet": {"n_steps": 4, "dt": 0.1, "delta": 0.5}}
    assert run(tmp_path, "magnetization", cfg) == 3
    summary = json.loads((tmp_path / "out" / "magnetization_summary.json").read_text())
    assert summary["unconverged_sectors"]
    # the ED files are written before the failure is raised
    assert (tmp_path / "out" / "sectors_ed.csv").exists()
    assert (tmp_path / "out" / "magnetization_ed.csv").exists()


def test_allocation_small(tmp_path):
    cfg = {"allocation": {"m_totals": [200], "f1_grid": [0.2, 1 / 3, 0.6],
                          "n_times": 3, "realizations": 20}}
    assert run(tmp_path, "allocation", cfg) == 0
    rows = (tmp_path / "out" / "allocation.csv").read_text().splitlines()
    assert len(rows) == 1 + 3 * 2  # grid x modes
    summary = json.loads((tmp_path / "out" / "allocation_summary.json").read_text())
    assert "best_f1_fraction_f1_sqrt" in summary


def test_allocation_from_the_12_spin_pinwheel(tmp_path):
    # the exact evolver's F1 = |O|^2 of the 12-spin pinwheel state exceeds 1
    # by rounding (up to 1.8e-15), which a binomial draw refuses; the count
    # rule clips it, and every grid point has a finite error
    cfg = {"n_triangles": 6, "initial": {"kind": "pinwheel"},
           "allocation": {"m_totals": [100], "f1_grid": [0.2, 0.5], "n_times": 3,
                          "realizations": 5}}
    assert run(tmp_path, "allocation", cfg) == 0
    with open(tmp_path / "out" / "allocation.csv") as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == 2 * 2
    assert all(math.isfinite(float(row["typical_error"])) for row in rows)


@pytest.mark.parametrize("n_triangles, sz", [(4, 4), (6, 6)])
def test_allocation_from_state_without_dimers_exits_2(tmp_path, capsys, n_triangles, sz):
    # the study's fractions assume the reference superposition, and the
    # all-up sector state has no dimer to build it from; validate passes it
    # for other commands, since an exact converge run from that state is valid
    initial = {"kind": "sector", "sz": sz}
    RunConfig(n_triangles=n_triangles, initial=InitialStateSpec(**initial)).validate()
    assert run(tmp_path, "allocation", {"n_triangles": n_triangles, "initial": initial}) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_allocation_without_dimers_refused_before_output(tmp_path, capsys, monkeypatch):
    # validate refuses the state for the allocation study only, before main
    # creates --out or writes run_config.json, and before the command runs
    cfg = RunConfig(initial=InitialStateSpec(kind="sector", sz=4))
    for command in (None, "spectrum", "overlaps", "converge", "magnetization"):
        cfg.validate(command)
    with pytest.raises(ConfigError, match="dimer"):
        cfg.validate("allocation")

    def no_command(*args, **kwargs):
        raise AssertionError("allocation command ran")

    monkeypatch.setitem(cli.COMMANDS, "allocation", no_command)
    assert run(tmp_path, "allocation", {"initial": {"kind": "sector", "sz": 4}}) == 2
    assert capsys.readouterr().err.startswith("configuration error:")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("grid, best", [([1.0, 0.5], 0.5), ([0.0, 0.5], 0.5), ([1.0], None)])
def test_allocation_points_without_estimate(tmp_path, grid, best):
    # at F1 fraction 0 or 1 one side's circuits get no shots: the point has
    # no estimate, so its cells are empty and it is never the best fraction
    cfg = {"allocation": {"m_totals": [100], "f1_grid": grid, "n_times": 2,
                          "realizations": 5}}
    assert run(tmp_path, "allocation", cfg) == 0
    header, *rows = (tmp_path / "out" / "allocation.csv").read_text().splitlines()
    assert len(rows) == 2 * len(grid)
    for row in rows:
        _, fraction, _, error, spread = row.split(",")
        assert (error == spread == "") == (float(fraction) in (0.0, 1.0))
        if error:
            float(error), float(spread)
    summary = json.loads((tmp_path / "out" / "allocation_summary.json").read_text())
    assert summary == {"best_f1_fraction_f1_sqrt": {"100": best}}


def test_seed_flag_overrides(tmp_path):
    cfg = {"steps": 3, "shots": {"total": 50}, "seed": 1}
    assert run(tmp_path, "overlaps", cfg, extra=("--seed", "2")) == 0
    echoed = json.loads((tmp_path / "out" / "run_config.json").read_text())
    assert echoed["seed"] == 2


@pytest.mark.parametrize("seed", ["-1", str(2 ** 64)])
def test_seed_flag_outside_64_bits_refused(tmp_path, capsys, seed):
    assert run(tmp_path, "overlaps", extra=("--seed", seed)) == 2
    assert capsys.readouterr().err == "configuration error: seed must lie in [0, 2**64 - 1]\n"


def test_config_validation_direct():
    with pytest.raises(ConfigError):
        RunConfig.from_dict({"solvers": ["newton"]}).validate()
    with pytest.raises(ConfigError):
        RunConfig.from_dict({"n_triangles": 5}).validate()
    cfg = RunConfig.from_dict({"shots": {"total": 100, "fractions": [0.4, 0.3, 0.3]}})
    cfg.validate()
    assert cfg.shots.total == 100
    # a noise section that asks for nothing needs no shots
    RunConfig.from_dict({"noise": {"p_pauli": 0.0, "twirl_angle": 0.3}}).validate()


def test_noisy_overlaps_write_ablation(tmp_path):
    cfg = {"steps": 2, "evolver": "floquet", "shots": {"total": 40},
           "noise": {"p_pauli": 0.002, "enable_postselect": True}}
    assert run(tmp_path, "overlaps", cfg) == 0
    assert (tmp_path / "out" / "mitigation_ablation.csv").exists()


def test_solver_knobs_plumbed(tmp_path):
    cfg = {"steps": 20, "deltas": [1e-6], "solvers": ["odmd"],
           "odmd_window": 6, "odmd_real_part": True,
           "eigenvalue_band": [0.4, 1.6]}
    assert run(tmp_path, "converge", cfg) == 0
    cfg_bad = {"eigenvalue_band": [1.2, 1.6]}
    assert run(tmp_path, "converge", cfg_bad) == 2


def test_reverse_trotter_groups_config(tmp_path):
    cfg = {"steps": 4, "evolver": "trotter", "reverse_trotter_groups": True}
    assert run(tmp_path, "overlaps", cfg) == 0


def test_converge_sampled_writes_spread(tmp_path):
    cfg = {"steps": 8, "deltas": [0.1], "solvers": ["uvqpe"],
           "shots": {"total": 200}, "realizations": 3}
    assert run(tmp_path, "converge", cfg) == 0
    assert (tmp_path / "out" / "convergence_spread.csv").exists()


def test_validate_reparses_python_built_configs():
    """Fields set in Python get the type checks of from_dict."""
    for bad in ({"steps": 2.5}, {"evolver": "euler"}, {"seed": True},
                {"initial": InitialStateSpec(cz_bonds=((6, "x"),))}):
        with pytest.raises(ConfigError):
            RunConfig(**bad).validate()
    cfg = RunConfig(initial=InitialStateSpec(cz_bonds=[[1, 4]]))
    cfg.validate()  # lists stand for tuples, as in JSON
    assert cfg.initial_prep(build_star(4)).cz_bonds == ((1, 4),)


# the benchmark's magnet12 and noisy8 workload configs
WORKLOAD_CONFIGS = [
    {"n_triangles": 6},
    {"evolver": "floquet", "steps": 10, "shots": {"total": 200},
     "noise": {"p_pauli": 0.001, "enable_postselect": True, "enable_twirl": True}},
]


def test_config_json_round_trip():
    configs = sorted((Path(__file__).resolve().parent.parent / "configs").glob("*.json"))
    for raw in [json.loads(path.read_text()) for path in configs] + WORKLOAD_CONFIGS:
        cfg = RunConfig.from_dict(raw)
        again = RunConfig.from_dict(json.loads(cfg.to_json()))
        assert again == cfg
        assert again.to_json() == cfg.to_json()


def test_noisy8_run_config_bytes_unchanged():
    # the digest of the run_config.json the noisy8 config wrote while the
    # config had a noise section class of its own beside noise.NoiseSpec
    cfg = RunConfig.from_dict(WORKLOAD_CONFIGS[1])
    assert json.loads(cfg.to_json())["noise"] == {
        "enable_postselect": True, "enable_twirl": True, "p_pauli": 0.001, "twirl_angle": None}
    assert hashlib.sha256(cfg.to_json().encode()).hexdigest() == (
        "6b24a46846c2a3e243f74fb772bfa0891d9031f5c9bf4352168d6966c3c8667e")


def test_shipped_configs_validate():
    configs = sorted((Path(__file__).resolve().parent.parent / "configs").glob("*.json"))
    assert configs
    for path in configs:
        RunConfig.from_json(path).validate()
