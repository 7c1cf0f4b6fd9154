"""Command-line pipeline: featurize, train, cross-validate, invert, generate.

Subcommands wrap the library modules and exchange JSON/CSV artifacts.
Exit codes: 0 success, 1 error, 2 elimination-only dataset issues,
3 infeasible inverse problem.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import hashlib
import json
import math
import sys
from collections import Counter
from pathlib import Path

from .chemgraph import GraphError, parse_pmg, serialize_pmg
from .features import (
    FeatureError,
    build_registry,
    feature_matrix,
    load_dataset,
    standardize,
)
from .generate import RoundtripCheck, run_generation, verify_roundtrip
from .milp import (  # `solve` is unused here; perfbench's tracer and its test look up `cli.solve`
    InverseProblemSpec,
    MilpError,
    build_inverse_milp,
    emit_lp,
    predicted_value,
    solve,  # noqa: F401
    solve_inverse,
)
from .model import ModelBundle
from .regress import RegressError, cross_validate, lasso_fit, select_lambda
from .topospec import SpecError, TopologicalSpec, build_instance_Ib, check_satisfies

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_ELIMINATED = 2
EXIT_INFEASIBLE = 3

# the keys `_merged` and `_budget` read; one file serves every command, so a
# key only another command reads is accepted too
CONFIG_KEYS = frozenset({
    "rho", "allow_charge", "lam", "seed", "runs", "folds", "window", "epsilon",
    "limit_seconds", "limit_candidates",
})


def _read_config(path: str | None) -> dict[str, str]:
    if not path:
        return {}
    out: dict[str, str] = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno}: expected key=value")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in CONFIG_KEYS:
            raise ValueError(f"config line {lineno}: unknown key {key!r} "
                             f"(accepted: {', '.join(sorted(CONFIG_KEYS))})")
        out[key] = value.strip()
    return out


def _merged(args: argparse.Namespace, config: dict[str, str], key: str, default, cast):
    flag = getattr(args, key, None)
    if flag is not None:
        return flag
    if key in config:
        try:
            return cast(config[key])
        except ValueError:
            raise ValueError(f"config key {key!r}: expected {cast.__name__}, got {config[key]!r}") from None
    return default


def _budget(args: argparse.Namespace, config: dict[str, str], key: str, default, cast):
    """A `--limit-*` budget from the flag or the config file: absent or a
    non-negative number (NaN would never expire)."""
    value = _merged(args, config, key, default, cast)
    if value is not None and not value >= 0:
        raise ValueError(f"--{key.replace('_', '-')} must be a non-negative number, got {value}")
    return value


def _parse_window(text: str | None) -> tuple[float, float]:
    if text is None:
        raise ValueError("--window LO,HI is required (flag or config file)")
    try:
        lo, hi = (float(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"--window expects LO,HI, got {text!r}") from None
    if not lo < hi:
        raise ValueError("--window lower bound must be below upper bound")
    return lo, hi


def _parse_covariates(pairs: list[str] | None, bundle: ModelBundle) -> dict[str, float]:
    """`--covariate NAME=VALUE` pairs: NAME a covariate of the model's
    registry, VALUE a finite number, and one pair for each covariate."""
    known = bundle.registry.keys_of("cov")
    out: dict[str, float] = {}
    for pair in pairs or []:
        name, sep, text = pair.partition("=")
        if not sep or not name:
            raise ValueError(f"--covariate expects NAME=VALUE, got {pair!r}")
        if name not in known:
            raise ValueError(f"--covariate {name}: the model has no such covariate "
                             f"(it has: {', '.join(known) or 'none'})")
        try:
            value = float(text)
            if not math.isfinite(value):
                raise ValueError
        except ValueError:
            raise ValueError(f"--covariate {name}: expected a finite number, got {text!r}") from None
        out[name] = value
    for name in known:
        if name not in out:
            raise ValueError(f"--covariate {name}: missing; the model needs a value "
                             "for each of its covariates")
    return out


def _load_corpus(args, config):
    rho = _merged(args, config, "rho", 2, int)
    charge = _merged(args, config, "allow_charge", 0, int)
    dataset, report = load_dataset(args.graphs, args.values, max_abs_charge=charge)
    return rho, dataset, report


def _write(path: str | Path, text: str) -> None:
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    Path(path).write_text(text)


# ---------------------------------------------------------------------------
# Subcommand handlers


def cmd_featurize(args, config) -> int:
    rho, dataset, report = _load_corpus(args, config)
    registry = build_registry(dataset, rho)
    X, oovs = feature_matrix(dataset, registry)
    _write(args.out_registry, registry.to_json() + "\n")
    rows = [["id"] + registry.names]
    for rec, row in zip(dataset.records, X):
        rows.append([rec.id] + [f"{v:.17g}" for v in row])
    with open(args.out_matrix, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    payload = {
        "kept": [rec.id for rec in dataset.records],
        "eliminated": [{"id": rid, "reason": reason} for rid, reason in report.eliminated],
        "descriptors": len(registry),
    }
    if args.out_report:
        _write(args.out_report, json.dumps(payload, indent=2, sort_keys=True) + "\n")
    for rid, reason in report.eliminated:
        print(f"eliminated {rid}: {reason}", file=sys.stderr)
    print(f"featurized {len(dataset)} records, K={len(registry)}")
    return EXIT_ELIMINATED if report.eliminated else EXIT_OK


def _fit_bundle(args, config):
    rho, dataset, report = _load_corpus(args, config)
    registry = build_registry(dataset, rho)
    std, Xs, ys = standardize(dataset, registry)
    lam = _merged(args, config, "lam", None, float)
    seed = _merged(args, config, "seed", 0, int)
    if seed < 0:
        raise ValueError(f"--seed must be a non-negative integer, got {seed}")
    if lam is None:
        lam, _ = select_lambda(Xs, ys, seed=seed)
    return dataset, report, registry, std, Xs, ys, lam, seed


def cmd_train(args, config) -> int:
    dataset, report, registry, std, Xs, ys, lam, _ = _fit_bundle(args, config)
    h = lasso_fit(Xs, ys, lam)
    if not h.converged:
        print(f"warning: lasso fit not certified (KKT violation {h.kkt:.3g})", file=sys.stderr)
    bundle = ModelBundle(registry=registry, standardizer=std, hyperplane=h, lam=lam)
    _write(args.out_model, bundle.to_json() + "\n")
    print(f"trained on {len(dataset)} records, lambda={lam:g}, "
          f"selected={len(h.support())}/{len(registry)} descriptors")
    return EXIT_ELIMINATED if report.eliminated else EXIT_OK


def cmd_cv(args, config) -> int:
    dataset, _, registry, _, Xs, ys, lam, seed = _fit_bundle(args, config)
    runs = _merged(args, config, "runs", 10, int)
    folds = _merged(args, config, "folds", 5, int)
    rep = cross_validate(Xs, ys, lam, runs=runs, folds=folds, seed=seed)
    _write(args.out_report, rep.to_json() + "\n")
    if args.out_table:
        a = dataset.values()
        sizes = [rec.graph.non_hydrogen_count() for rec in dataset.records]
        row = {
            "size": len(dataset),
            "n_min": min(sizes),
            "n_max": max(sizes),
            "a_min": f"{a.min():g}",
            "a_max": f"{a.max():g}",
            "edge_configs": len(registry.keys_of("ec_int")),
            "fringe_trees": len(registry.keys_of("fc")),
            "K": len(registry),
            "lambda": f"{lam:g}",
            "mean_selected": f"{rep.mean_selected:.1f}",
            "median_test_r2": f"{rep.median_r2:.6f}",
        }
        with open(args.out_table, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(row))
            writer.writeheader()
            writer.writerow(row)
    print(f"cv: lambda={lam:g} median test R^2={rep.median_r2:.6f} selected={rep.mean_selected:.2f}")
    return EXIT_OK


def _inverse_spec(bundle: ModelBundle, window: tuple[float, float], epsilon: float) -> InverseProblemSpec:
    std = bundle.standardizer
    return InverseProblemSpec(
        hyperplane=bundle.hyperplane,
        y_lo=std.transform_value(window[0]),
        y_hi=std.transform_value(window[1]),
        feat_min=std.feature_min,
        feat_max=std.feature_max,
        integer_indices=frozenset(bundle.registry.integer_indices()),
        epsilon=epsilon,
    )


def cmd_infer(args, config) -> int:
    bundle = ModelBundle.from_json(Path(args.model).read_text())
    window = _parse_window(_merged(args, config, "window", None, str))
    epsilon = _merged(args, config, "epsilon", 1e-5, float)
    spec = _inverse_spec(bundle, window, epsilon)
    limit_seconds = _budget(args, config, "limit_seconds", 120.0, float)
    sol = solve_inverse(spec, max_seconds=limit_seconds)
    # the certificate reads the model's rows, so the `MilpModel` is built
    # only here, for the LP file, after the search
    if args.emit_lp:
        _write(args.emit_lp, emit_lp(build_inverse_milp(spec)))
    payload: dict = {
        "status": sol.status,
        "epsilon": epsilon,
        "window": list(window),
        "nodes": sol.nodes,
        "pivots": sol.pivots,
        "open_nodes": sol.open_nodes,
    }
    if sol.status == "feasible":
        raw = {
            name: float(value)
            for name, value in sol.assignment.items()
            if name.startswith("x_")
        }
        y_std = predicted_value(spec, sol.assignment)
        payload["x"] = [raw[f"x_{j + 1}"] for j in range(len(bundle.registry))]
        payload["descriptors"] = bundle.registry.names
        payload["predicted_standardized"] = y_std
        payload["predicted"] = bundle.standardizer.inverse_value(y_std)
    if args.out:
        _write(args.out, json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"inverse problem: {sol.status}" + (
        f", predicted={payload['predicted']:.6g}" if sol.status == "feasible" else ""
    ))
    if sol.status == "infeasible":
        return EXIT_INFEASIBLE
    return EXIT_OK if sol.status == "feasible" else EXIT_ERROR


def cmd_spec_ib(args, config) -> int:
    spec = build_instance_Ib(args.property, args.n_lb, rho=_merged(args, config, "rho", 2, int))
    _write(args.out, spec.to_json())
    print(f"wrote instance spec for {args.property}, n_lb={args.n_lb}")
    return EXIT_OK


def cmd_generate(args, config) -> int:
    bundle = ModelBundle.from_json(Path(args.model).read_text())
    spec = TopologicalSpec.from_json(Path(args.spec).read_text())
    window = _parse_window(_merged(args, config, "window", None, str))
    covariates = _parse_covariates(args.covariate, bundle)
    limit_candidates = _budget(args, config, "limit_candidates", None, int)
    limit_seconds = _budget(args, config, "limit_seconds", None, float)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    outcome = run_generation(
        spec,
        bundle,
        window,
        limit_candidates=limit_candidates,
        limit_seconds=limit_seconds,
        covariates=covariates or None,
    )
    manifest_path = out_dir / "manifest.jsonl"
    with open(manifest_path, "w") as fh:
        for i, result in enumerate(outcome.results):
            name = f"gen{i:04d}.pmg"
            (out_dir / name).write_text(serialize_pmg(result.graph))
            g = result.graph
            elements = Counter(sym for _, sym in g.atoms)
            fh.write(
                json.dumps(
                    {
                        "file": name,
                        "signature_sha": hashlib.sha256(result.signature.encode()).hexdigest(),
                        "predicted": result.prediction,
                        "counts": {
                            "n": g.non_hydrogen_count(),
                            "interior": result.n_interior,
                            "exterior": result.n_exterior,
                            "link_edges": len(g.link_edges),
                            "elements": dict(sorted(elements.items())),
                        },
                        "fringe_codes": list(result.fringe_codes),
                    },
                    sort_keys=True,
                )
                + "\n"
            )
        summary = {f.name: getattr(outcome, f.name) for f in dataclasses.fields(outcome)}
        summary["results"] = len(outcome.results)
        summary["rejected_by"] = dict(sorted(outcome.rejected_by.items()))
        fh.write(json.dumps({"summary": summary}, sort_keys=True) + "\n")
    print(
        f"generate: {len(outcome.results)} graphs ({outcome.status}); "
        f"examined={outcome.candidates_examined} spec-rejected={outcome.rejected_spec} "
        f"window-rejected={outcome.rejected_window} oov={outcome.rejected_oov} "
        f"duplicates={outcome.duplicates} symmetric-dropped={outcome.dropped_symmetric} "
        f"vocabulary-cut={outcome.cut_vocabulary}"
    )
    return EXIT_OK


def cmd_verify(args, config) -> int:
    bundle = ModelBundle.from_json(Path(args.model).read_text())
    spec = TopologicalSpec.from_json(Path(args.spec).read_text())
    window = _parse_window(_merged(args, config, "window", None, str))
    covariates = _parse_covariates(args.covariate, bundle)
    all_ok = True
    for path in args.graph_files:
        # a file that cannot be read as a graph fails on its own; the rest
        # are still checked
        try:
            g = parse_pmg(Path(path).read_text())
        except (OSError, GraphError) as exc:
            checks = [RoundtripCheck("parse", False, str(exc))]
        else:
            checks = verify_roundtrip(g, spec, bundle, window, covariates or None)
        ok = all(c.ok for c in checks)
        all_ok &= ok
        print(f"{path}: {'PASS' if ok else 'FAIL'}")
        for c in checks:
            print(f"  {'ok ' if c.ok else 'BAD'} {c.name}: {c.detail}")
    return EXIT_OK if all_ok else EXIT_ERROR


def cmd_check(args, config) -> int:
    spec = TopologicalSpec.from_json(Path(args.spec).read_text())
    g = parse_pmg(Path(args.graph).read_text())
    report = check_satisfies(g, spec)
    for c in report.checks:
        if not c.ok or args.verbose:
            mark = "ok " if c.ok else "BAD"
            print(f"{mark} {c.name}: {c.measured} in [{c.lower},{c.upper}]")
    for name, ok in report.memberships:
        if not ok or args.verbose:
            print(f"{'ok ' if ok else 'BAD'} {name}")
    print("witness:", report.witness_message)
    print("PASS" if report.passed else "FAIL")
    return EXIT_OK if report.passed else EXIT_ERROR


# ---------------------------------------------------------------------------
# Parser


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The `polyinfer` parser, built once per process: parsing reads it and
    never changes it."""
    parser = argparse.ArgumentParser(
        prog="polyinfer",
        description="Polymer property models over monomer graphs and their inversion",
    )
    parser.add_argument("--config", help="key=value defaults, overridden by flags")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_corpus(p):
        p.add_argument("--graphs", required=True, help="directory of <id>.pmg files")
        p.add_argument("--values", required=True, help="CSV with id,value[,covariates]")
        p.add_argument("--rho", type=int)
        p.add_argument("--allow-charge", dest="allow_charge", type=int,
                       help="accept |bond sum - valence| up to this value")

    p = sub.add_parser("featurize", help="build registry and feature matrix")
    add_corpus(p)
    p.add_argument("--out-registry", required=True)
    p.add_argument("--out-matrix", required=True)
    p.add_argument("--out-report")

    p = sub.add_parser("train", help="fit the sparse linear model")
    add_corpus(p)
    p.add_argument("--lambda", dest="lam", type=float, help="penalty; omitted = grid select")
    p.add_argument("--seed", type=int)
    p.add_argument("--out-model", required=True)

    p = sub.add_parser("cv", help="repeated k-fold cross-validation report")
    add_corpus(p)
    p.add_argument("--lambda", dest="lam", type=float)
    p.add_argument("--runs", type=int)
    p.add_argument("--folds", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--out-report", required=True)
    p.add_argument("--out-table")

    p = sub.add_parser("infer", help="solve the inverse problem for a window")
    p.add_argument("--model", required=True)
    p.add_argument("--window", help="LO,HI in original property units")
    p.add_argument("--epsilon", type=float)
    p.add_argument("--emit-lp", dest="emit_lp", help="also write the model as an LP file")
    p.add_argument("--limit-seconds", dest="limit_seconds", type=float)
    p.add_argument("--out")

    p = sub.add_parser("spec-ib", help="write the parameterized two-ring instance")
    p.add_argument("--property", required=True, choices=["AmD", "HcL", "RfId", "Tg", "Prm"])
    p.add_argument("--n-lb", dest="n_lb", type=int, required=True)
    p.add_argument("--rho", type=int)
    p.add_argument("--out", required=True)

    p = sub.add_parser("generate", help="enumerate polymers in spec and window")
    p.add_argument("--model", required=True)
    p.add_argument("--spec", required=True)
    p.add_argument("--window")
    p.add_argument("--covariate", action="append", help="NAME=VALUE, repeatable")
    p.add_argument("--limit-candidates", dest="limit_candidates", type=int)
    p.add_argument("--limit-seconds", dest="limit_seconds", type=float)
    p.add_argument("--out-dir", required=True)

    p = sub.add_parser("verify", help="re-check generated graphs end to end")
    p.add_argument("--model", required=True)
    p.add_argument("--spec", required=True)
    p.add_argument("--window")
    p.add_argument("--covariate", action="append")
    p.add_argument("graph_files", nargs="+")

    p = sub.add_parser("check", help="evaluate specification bounds on one graph")
    p.add_argument("--spec", required=True)
    p.add_argument("--graph", required=True)
    p.add_argument("--verbose", action="store_true")

    return parser


def _handlers() -> dict:
    """Subcommand -> handler, read at each call: a handler rebound on the
    module (a tracer or a test wrapping `cmd_infer`, say) is the one that
    runs."""
    return {
        "featurize": cmd_featurize,
        "train": cmd_train,
        "cv": cmd_cv,
        "infer": cmd_infer,
        "spec-ib": cmd_spec_ib,
        "generate": cmd_generate,
        "verify": cmd_verify,
        "check": cmd_check,
    }


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = _read_config(args.config)
        return _handlers()[args.command](args, config)
    except (GraphError, FeatureError, RegressError, MilpError, SpecError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
