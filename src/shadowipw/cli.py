"""Command-line front end.

Subcommands: ``simulate``, ``search``, ``estimate``, ``pipeline``, and the
``experiment`` group (``search`` / ``estimate``). Reports are emitted as
JSON with the fully resolved configuration embedded, so any run can be
reproduced exactly; only ``simulate`` and the experiments draw at random,
and they take a seed. Exit codes: 0 success, 1 an input, fit or solve
error (the message names it), 3 the incentive/response gate failed, 4 no
adjustment set found (2 is reserved by the argument parser for usage
errors).

Roles and settings come from a JSON config file (``--config``) and from
flags made from the settings table; flags override file values, and a
file key that no command reads is an error. An empty experiment cell's
statistics are null. SHADOWIPW_SEED sets the default seed.
"""

from __future__ import annotations

import functools
import json
import os
import sys
from collections import namedtuple
from pathlib import Path

import click

from . import __version__, estimate, experiments, shadow
from .data import RoleMap, load_csv, write_csv
from .search import (C1_FAILED, FOUND, NOT_FOUND, check_search_settings,
                     find_adjustment_set)
from .simulate import SCENARIOS, default_config, generate

EXIT_OK = 0
EXIT_C1_FAILED = 3
EXIT_NOT_FOUND = 4

_STATUS_EXIT = {FOUND: EXIT_OK, C1_FAILED: EXIT_C1_FAILED,
                NOT_FOUND: EXIT_NOT_FOUND}


def _emit(report: dict, out: str | None) -> None:
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if out is None or out == "-":
        click.echo(text, nl=False)
    else:
        Path(out).write_text(text)


# a role or setting: its default, and its flag's click type and help
_Setting = namedtuple("_Setting", "default type help", defaults=(str, None))

# the roles and every setting some command reads; each one's flag is made
# from its entry, and a config file holds no other key, so a misspelt or
# stale one is an error rather than ignored
_ROLES = ("treatment", "outcome", "response", "incentive", "covariates")
_SETTINGS = {
    **dict.fromkeys(_ROLES[:-1], _Setting(None)),
    "covariates": _Setting(
        None, help="Comma-separated covariate column names."),
    "alpha": _Setting(0.05, float, "Test level."),
    "max_subset_size": _Setting(None, int),
    "h_mode": _Setting(shadow.DEFAULT_H_MODE, click.Choice(shadow.H_MODES)),
    "clip_lo": _Setting(estimate.DEFAULT_CLIP[0], float),
    "clip_hi": _Setting(estimate.DEFAULT_CLIP[1], float)}


def _split(text: str) -> tuple:
    """The entries of a comma-separated list, stripped, empty ones dropped."""
    return tuple(v.strip() for v in text.split(",") if v.strip())


def _load_config_file(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        config = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise click.ClickException(f"config file {path}: {exc}") from exc
    if not isinstance(config, dict):
        raise click.ClickException(f"config file {path} must hold an object")
    unknown = [key for key in config if key not in _SETTINGS]
    if unknown:
        raise click.ClickException(
            f"config file {path}: unknown key {', '.join(map(repr, unknown))}"
            f" (known: {', '.join(_SETTINGS)})")
    return config


def _settings(config_path, **flags) -> tuple[RoleMap, dict]:
    """A command's roles and settings: each the flag if given, else the
    config-file value, else the default, the clip bounds as one ``clip``.
    The library's rules are applied before the data are read."""
    config = _load_config_file(config_path)
    s = {key: config.get(key, _SETTINGS[key].default) if value is None
         else value for key, value in flags.items()}
    if isinstance(s["covariates"], str):
        s["covariates"] = _split(s["covariates"])
    roles = {key: s.pop(key) for key in _ROLES}
    missing = [key for key, value in roles.items() if value is None]
    if missing:
        raise click.ClickException(
            "missing role configuration: " + ", ".join(sorted(missing)))
    roles = RoleMap.from_dict(roles)
    if "alpha" in s:
        check_search_settings(s["alpha"], s["max_subset_size"])
    if "h_mode" in s:
        shadow.check_h_mode(s["h_mode"])
        estimate.check_clip_bounds(s["clip_lo"], s["clip_hi"])
        s["clip"] = [s.pop("clip_lo"), s.pop("clip_hi")]
    return roles, s


def _estimate_report(model, treat, est) -> dict:
    """The blocks an ``estimate`` or ``pipeline`` report gives a fitted
    estimate: both propensity models, the estimate, and ``warnings``, which
    names each fit whose numbers the estimate should not be trusted on."""
    warnings = []
    if model.used_fallback:
        warnings.append("response propensity: the Newton solve stalled at "
                        f"residual {model.residual_norm:.3g}")
    elif not model.converged:
        warnings.append("response propensity: the Newton solve did not "
                        f"converge in {model.iterations} iterations")
    if treat.separated:
        warnings.append("treatment propensity: the fit is separated")
    elif not treat.converged:
        warnings.append("treatment propensity: the fit did not converge in "
                        f"{treat.iterations} iterations")
    if treat.rank_deficient:
        warnings.append("treatment propensity: the design is rank deficient")
    return {"response_propensity": model.to_dict(),
            "treatment_propensity": {
                "coefficients": [float(c) for c in treat.coefficients],
                "converged": treat.converged, "separated": treat.separated},
            "estimate": est.to_dict(), "warnings": warnings}


def _options(*options):
    """A decorator that applies ``options``, listed in ``--help`` order."""
    return lambda fn: functools.reduce(lambda f, o: o(f), options[::-1], fn)


def _option(key: str, **kwargs):
    """The flag of setting ``key``, with the type and help of its entry."""
    return click.option("--" + key.replace("_", "-"), key,
                        type=_SETTINGS[key].type, help=_SETTINGS[key].help,
                        **kwargs)


def _setting_options(*keys):
    """``--config`` and the flags of the roles and of settings ``keys``,
    each None unless given, so that ``_settings`` can tell."""
    return _options(
        click.option("--config", "config_path", type=click.Path(exists=True),
                     help="JSON config file with roles/settings."),
        *(_option(key, default=None) for key in (*_ROLES, *keys)))


seed_option = click.option("--seed", type=int, default=0,
                           envvar="SHADOWIPW_SEED", show_envvar=True,
                           help="Base seed (default 0).")


class _Main(click.Group):
    """The command group. Every input, fit or solve error the library
    raises is a ValueError (DataError, GlmError, ShadowError,
    DegenerateDataError, or a setting that its library rule refuses); it
    and a file that cannot be read or written (OSError) end the command
    with its message, exit 1."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except (ValueError, OSError) as exc:
            raise click.ClickException(str(exc)) from exc


@click.group(cls=_Main)
@click.version_option(version=__version__, prog_name="shadowipw")
def main():
    """Identification tests and weighting estimators for causal effects
    when the outcome censors its own reporting."""


@main.command("simulate")
@click.option("--n", type=click.IntRange(min=1), default=10000,
              show_default=True)
@seed_option
@click.option("--scenario", type=click.Choice(SCENARIOS), default="base",
              show_default=True)
@click.option("--out", required=True, type=click.Path(),
              help="Output CSV path; oracle columns go to a sibling file.")
def cmd_simulate(n, seed, scenario, out):
    """Draw a synthetic dataset and write it as CSV."""
    config = default_config(n=n, seed=seed, scenario=scenario)
    ds = generate(config)
    write_csv(ds, out)
    mean_response = float(ds.column(ds.roles.response).mean())
    click.echo(json.dumps({"n": n, "seed": config.seed, "scenario": scenario,
                           "out": str(out), "mean_response": mean_response},
                          sort_keys=True))


@main.command("search")
@click.argument("data", type=click.Path(exists=True))
@_setting_options("alpha", "max_subset_size")
@click.option("--out", default=None, help="Report path (default stdout).")
def cmd_search(data, out, **flags):
    """Search for a witness and adjustment set on a CSV dataset."""
    roles, s = _settings(**flags)
    ds = load_csv(data, roles)
    outcome_ = find_adjustment_set(ds, s["alpha"], s["max_subset_size"])
    report = {"command": "search", "data": str(data), **s,
              "roles": roles.to_dict(), "outcome": outcome_.to_dict()}
    _emit(report, out)
    sys.exit(_STATUS_EXIT[outcome_.status])


@main.command("estimate")
@click.argument("data", type=click.Path(exists=True))
@_setting_options("h_mode", "clip_lo", "clip_hi")
@click.option("--adjustment", required=True,
              help="Comma-separated adjustment-set columns.")
@click.option("--out", default=None)
def cmd_estimate(data, adjustment, out, **flags):
    """Estimate the average causal effect with a given adjustment set."""
    roles, s = _settings(**flags)
    Z = roles.check_adjustment(_split(adjustment))
    ds = load_csv(data, roles)
    report = {"command": "estimate", "data": str(data), **s,
              "roles": roles.to_dict(), "adjustment": list(Z),
              **_estimate_report(*estimate.fit_and_weight(
                  ds, Z, s["h_mode"], s["clip"]))}
    _emit(report, out)


@main.command("pipeline")
@click.argument("data", type=click.Path(exists=True))
@_setting_options("alpha", "max_subset_size", "h_mode", "clip_lo",
                  "clip_hi")
@click.option("--out", default=None)
def cmd_pipeline(data, out, **flags):
    """Run the three-step procedure: gate test, search, then estimation."""
    roles, s = _settings(**flags)
    ds = load_csv(data, roles)
    outcome_ = find_adjustment_set(ds, s["alpha"], s["max_subset_size"])
    report = {"command": "pipeline", "data": str(data),
              "config": {**s, "roles": roles.to_dict()},
              "search": outcome_.to_dict(),
              "response_propensity": None, "treatment_propensity": None,
              "estimate": None, "warnings": []}
    if outcome_.status == FOUND:
        report.update(_estimate_report(*estimate.fit_and_weight(
            ds, outcome_.adjustment_set, s["h_mode"], s["clip"])))
    _emit(report, out)
    sys.exit(_STATUS_EXIT[outcome_.status])


@main.group("experiment")
def cmd_experiment():
    """Monte Carlo reproductions of the search and estimation studies."""


_EXPERIMENT_OPTIONS = (
    click.option("--n-grid", default="500,2500,5000,10000",
                 show_default=True),
    click.option("--trials", type=int, default=200, show_default=True),
    _option("alpha", default=_SETTINGS["alpha"].default, show_default=True),
    seed_option,
    click.option("--jobs", type=int, default=None,
                 help="Parallel workers (default: the CPUs this process "
                      "may use)."),
    click.option("--out-dir", type=click.Path(), default=None,
                 help="Write summary JSON and per-trial CSV here."))


def _run_experiment(kind, run, head, n_grid, jobs, out_dir, **options):
    """Run an experiment on the ``--n-grid`` sizes with ``--jobs`` workers
    (default: the CPUs this process may run on, which an affinity mask such
    as ``taskset``'s can make fewer than the host's); emit its summary,
    ``head`` keys first."""
    try:
        grid = tuple(int(v) for v in _split(n_grid))
    except ValueError:
        raise click.ClickException(
            f"bad sample-size grid {n_grid!r}") from None
    if jobs is None:
        jobs = (len(os.sched_getaffinity(0))
                if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1)
    report = run(grid, jobs=jobs, **options)
    summary = {"command": f"experiment {kind}", **head, **report.to_dict()}
    if not out_dir:
        _emit(summary, None)
        return
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _emit(summary, str(out / f"{kind}_summary.json"))
    (out / f"{kind}_trials.csv").write_text(report.rows_csv())
    click.echo(f"wrote {out / f'{kind}_summary.json'}")


@cmd_experiment.command("search")
@_options(*_EXPERIMENT_OPTIONS, click.option(
    "--oracle", is_flag=True,
    help="Replace the tests with the d-separation oracle."))
def cmd_experiment_search(oracle, **shared):
    """Sensitivity/specificity of the adjustment-set search."""
    _run_experiment("search", experiments.run_search_experiment,
                    {"oracle": oracle, "jobs_invariant": True},
                    oracle=oracle, **shared)


@cmd_experiment.command("estimate")
@_options(*_EXPERIMENT_OPTIONS,
          click.option("--methods", default=",".join(experiments.ALL_METHODS),
                       show_default=True),
          _option("h_mode", default=_SETTINGS["h_mode"].default,
                  show_default=True))
def cmd_experiment_estimate(methods, **shared):
    """Compare the full estimator against the oracle search and baselines."""
    _run_experiment("estimate", experiments.run_estimation_experiment, {},
                    methods=_split(methods), **shared)


if __name__ == "__main__":
    main()
