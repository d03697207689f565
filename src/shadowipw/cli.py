"""Command-line front end.

Subcommands: ``simulate``, ``search``, ``estimate``, ``pipeline``, and the
``experiment`` group (``search`` / ``estimate``). Reports are emitted as
JSON with the fully resolved configuration embedded, so any run can be
reproduced exactly; only ``simulate`` and the experiments draw at random,
and they take a seed. Exit codes: 0 success, 1 an input, fit or solve
error (the message names it), 3 the incentive/response gate failed, 4 no
adjustment set found (2 is reserved by the argument parser for usage
errors).

Role columns are taken from a JSON config file (``--config``) and/or
individual flags; flags override file values, and a file key that no
command reads is an error. The default seed can be set through the
SHADOWIPW_SEED environment variable.
"""

from __future__ import annotations

import json
import sys
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


# the roles and every setting some command reads, with their defaults; a
# config file holds no other key, so a misspelt or stale one is an error
# rather than ignored
_SETTINGS = {"treatment": None, "outcome": None, "response": None,
             "incentive": None, "covariates": None, "alpha": 0.05,
             "max_subset_size": None, "h_mode": shadow.H_MODE_A_MEAN,
             "clip_lo": estimate.DEFAULT_CLIP[0],
             "clip_hi": estimate.DEFAULT_CLIP[1]}


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


def _settings(config_path, **flags) -> dict:
    """A command's settings: each the flag if given, else the config-file
    value, else the default; the roles as a RoleMap under ``roles``. The
    library's rules are applied before the data are read."""
    config = _load_config_file(config_path)
    s = {key: config.get(key, _SETTINGS[key]) if value is None else value
         for key, value in flags.items()}
    if isinstance(s["covariates"], str):
        s["covariates"] = [c.strip() for c in s["covariates"].split(",")
                           if c.strip()]
    roles = {key: s.pop(key) for key in ("treatment", "outcome", "response",
                                         "incentive", "covariates")}
    missing = [key for key, value in roles.items() if value is None]
    if missing:
        raise click.ClickException(
            "missing role configuration: " + ", ".join(sorted(missing)))
    s["roles"] = RoleMap.from_dict(roles)
    if "alpha" in s:
        check_search_settings(s["alpha"], s["max_subset_size"])
    if "h_mode" in s:
        shadow.check_h_mode(s["h_mode"])
        estimate.check_clip_bounds(s["clip_lo"], s["clip_hi"])
    return s


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


_ROLE_OPTIONS = [
    click.option("--config", "config_path", type=click.Path(exists=True),
                 default=None, help="JSON config file with roles/settings."),
    click.option("--treatment", default=None),
    click.option("--outcome", default=None),
    click.option("--response", default=None),
    click.option("--incentive", default=None),
    click.option("--covariates", default=None,
                 help="Comma-separated covariate column names."),
]


def _with_role_options(fn):
    for option in reversed(_ROLE_OPTIONS):
        fn = option(fn)
    return fn


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
    click.echo(json.dumps({"n": n, "seed": config.seed, "scenario": scenario,
                           "out": str(out), "mean_response":
                           float(ds.column("R").mean())}, sort_keys=True))


@main.command("search")
@click.argument("data", type=click.Path(exists=True))
@_with_role_options
@click.option("--alpha", type=float, default=None, help="Test level.")
@click.option("--max-subset-size", type=int, default=None)
@click.option("--out", default=None, help="Report path (default stdout).")
def cmd_search(data, out, **flags):
    """Search for a witness and adjustment set on a CSV dataset."""
    s = _settings(**flags)
    ds = load_csv(data, s["roles"])
    outcome_ = find_adjustment_set(ds, s["alpha"], s["max_subset_size"])
    report = {"command": "search", "data": str(data), "alpha": s["alpha"],
              "max_subset_size": s["max_subset_size"],
              "roles": s["roles"].to_dict(), "outcome": outcome_.to_dict()}
    _emit(report, out)
    sys.exit(_STATUS_EXIT[outcome_.status])


@main.command("estimate")
@click.argument("data", type=click.Path(exists=True))
@_with_role_options
@click.option("--adjustment", required=True,
              help="Comma-separated adjustment-set columns.")
@click.option("--h-mode", type=click.Choice(shadow.H_MODES), default=None)
@click.option("--clip-lo", type=float, default=None)
@click.option("--clip-hi", type=float, default=None)
@click.option("--out", default=None)
def cmd_estimate(data, adjustment, out, **flags):
    """Estimate the average causal effect with a given adjustment set."""
    s = _settings(**flags)
    Z = tuple(c.strip() for c in adjustment.split(",") if c.strip())
    s["roles"].check_adjustment(Z)
    ds = load_csv(data, s["roles"])
    clip = [s["clip_lo"], s["clip_hi"]]
    report = {"command": "estimate", "data": str(data),
              "roles": s["roles"].to_dict(), "adjustment": list(Z),
              "h_mode": s["h_mode"], "clip": clip,
              **_estimate_report(*estimate.fit_and_weight(
                  ds, Z, s["h_mode"], tuple(clip)))}
    _emit(report, out)


@main.command("pipeline")
@click.argument("data", type=click.Path(exists=True))
@_with_role_options
@click.option("--alpha", type=float, default=None)
@click.option("--max-subset-size", type=int, default=None)
@click.option("--h-mode", type=click.Choice(shadow.H_MODES), default=None)
@click.option("--clip-lo", type=float, default=None)
@click.option("--clip-hi", type=float, default=None)
@click.option("--out", default=None)
def cmd_pipeline(data, out, **flags):
    """Run the three-step procedure: gate test, search, then estimation."""
    s = _settings(**flags)
    ds = load_csv(data, s["roles"])
    clip = [s["clip_lo"], s["clip_hi"]]
    resolved = {"alpha": s["alpha"], "max_subset_size": s["max_subset_size"],
                "h_mode": s["h_mode"], "clip": clip,
                "roles": s["roles"].to_dict()}
    outcome_ = find_adjustment_set(ds, s["alpha"], s["max_subset_size"])
    report = {"command": "pipeline", "data": str(data),
              "config": resolved, "search": outcome_.to_dict(),
              "response_propensity": None, "treatment_propensity": None,
              "estimate": None, "warnings": []}
    if outcome_.status == FOUND:
        report.update(_estimate_report(*estimate.fit_and_weight(
            ds, outcome_.adjustment_set, s["h_mode"], tuple(clip))))
    _emit(report, out)
    sys.exit(_STATUS_EXIT[outcome_.status])


@main.group("experiment")
def cmd_experiment():
    """Monte Carlo reproductions of the search and estimation studies."""


_GRID_DEFAULT = "500,2500,5000,10000"


def _parse_grid(text: str):
    try:
        return tuple(int(v) for v in text.split(",") if v.strip())
    except ValueError:
        raise click.ClickException(f"bad sample-size grid {text!r}") from None


def _emit_experiment(summary: dict, report, kind: str, out_dir) -> None:
    """The summary to stdout, or the summary JSON and the per-trial CSV to
    ``out_dir``."""
    if not out_dir:
        _emit(summary, None)
        return
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _emit(summary, str(out / f"{kind}_summary.json"))
    (out / f"{kind}_trials.csv").write_text(report.rows_csv())
    click.echo(f"wrote {out / f'{kind}_summary.json'}")


@cmd_experiment.command("search")
@click.option("--n-grid", default=_GRID_DEFAULT, show_default=True)
@click.option("--trials", type=int, default=200, show_default=True)
@click.option("--alpha", type=float, default=0.05, show_default=True)
@seed_option
@click.option("--jobs", type=int, default=None,
              help="Parallel workers (default: logical cores).")
@click.option("--oracle", is_flag=True,
              help="Replace the tests with the d-separation oracle.")
@click.option("--out-dir", type=click.Path(), default=None,
              help="Write summary JSON and per-trial CSV here.")
def cmd_experiment_search(n_grid, trials, alpha, seed, jobs, oracle, out_dir):
    """Sensitivity/specificity of the adjustment-set search."""
    jobs = jobs or experiments.default_jobs()
    report = experiments.run_search_experiment(
        _parse_grid(n_grid), trials, alpha, seed=seed,
        jobs=jobs, oracle=oracle)
    summary = {"command": "experiment search", "oracle": oracle,
               "jobs_invariant": True, **report.to_dict()}
    _emit_experiment(summary, report, "search", out_dir)


@cmd_experiment.command("estimate")
@click.option("--n-grid", default=_GRID_DEFAULT, show_default=True)
@click.option("--trials", type=int, default=200, show_default=True)
@click.option("--alpha", type=float, default=0.05, show_default=True)
@click.option("--methods", default=",".join(experiments.ALL_METHODS),
              show_default=True)
@seed_option
@click.option("--jobs", type=int, default=None)
@click.option("--h-mode", type=click.Choice(shadow.H_MODES),
              default=shadow.H_MODE_A_MEAN, show_default=True)
@click.option("--out-dir", type=click.Path(), default=None)
def cmd_experiment_estimate(n_grid, trials, alpha, methods, seed, jobs,
                            h_mode, out_dir):
    """Compare the full estimator against the oracle search and baselines."""
    jobs = jobs or experiments.default_jobs()
    method_list = tuple(m.strip() for m in methods.split(",") if m.strip())
    report = experiments.run_estimation_experiment(
        _parse_grid(n_grid), trials, alpha, methods=method_list, seed=seed, jobs=jobs, h_mode=h_mode)
    summary = {"command": "experiment estimate", **report.to_dict()}
    _emit_experiment(summary, report, "estimate", out_dir)


if __name__ == "__main__":
    main()
