"""Paired benchmark runs of two checkouts, summarized per workload and metric.

    python3 tools/bench_pairs.py --parent ../parent --change . \
        --workload gen-exhaust --seeds 1-10 --seconds 35 --out pairs.jsonl

For each workload and seed it runs `python3 perfbench/run.py --workload W
--seed S --seconds T --trace 0` once in each checkout, one after the
other; the side that runs first alternates from seed to seed.  Both sides
get the same seeds.  Per workload and end-to-end metric it prints each
side's median and quartiles over the seeds, how many pairs the change won
(ties count for neither side), and whether a gain may be claimed: the
change wins at least nine tenths of the pairs and its median beats the
parent's by more than the parent's interquartile range.  It flags a
metric whose median on the change's side is worse than the parent's by
more than that metric's `bound` (a share of the parent's median), the
regression a change must not show on any metric, and it prints the
operations attempted and failed on each side.

Run both sides from fresh copies (`git archive` or `git clone`) side by
side in one directory.  Where a checkout sits can move a metric by itself:
gen-ib `setup_s` read +44.7% over 10 pairs when only the change ran from
a long-lived checkout, and -0.8% with both as fresh copies in one
directory, for the same code.  The tool prints a warning to standard
error when the two checkouts are not in the same directory.

Metric names, which direction is better and the bounds come from the
parent's BENCHMARK.json.  `--out` keeps every run's result as one JSON line, and
`--summarize FILE` prints the summary of such a file without running
anything.  The tool only runs the benchmark; it changes nothing in
either checkout beyond what `perfbench/run.py` itself writes there.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

WIN_SHARE = 0.9  # share of pairs the change must win


def parse_seeds(text: str) -> list[int]:
    """'1-10' or '1,2,5' or a mix: '1-3,7'."""
    seeds: list[int] = []
    for part in text.split(","):
        lo, sep, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi) + 1) if sep else [int(lo)])
    return seeds


def run_one(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced benchmark run; its result object."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", repr(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=False,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{checkout}: {workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(lines[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(records: list[dict], metrics: dict[str, tuple[str, float]]) -> list[str]:
    """Summary lines; `metrics` maps an end-to-end metric to ('lower' or
    'higher', whichever is better, and the share by which its median may
    get worse)."""
    out: list[str] = []
    for workload in dict.fromkeys(r["workload"] for r in records):
        pairs: dict[int, dict[str, dict]] = {}
        for r in records:
            if r["workload"] == workload:
                pairs.setdefault(r["seed"], {})[r["side"]] = r["result"]
        pairs = {seed: p for seed, p in pairs.items() if len(p) == 2}
        if not pairs:
            continue
        out.append(f"{workload}: {len(pairs)} pairs, seeds {sorted(pairs)}")
        for side in ("parent", "change"):
            attempted = sum(p[side]["attempted"] for p in pairs.values())
            failed = sum(p[side]["failed"] for p in pairs.values())
            correct = sum(bool(p[side]["correct"]) for p in pairs.values())
            out.append(f"  {side}: {correct}/{len(pairs)} runs correct, {failed}/{attempted} operations failed")
        for name, (better, bound) in metrics.items():
            rows = [
                (p["parent"]["metrics"][name]["value"], p["change"]["metrics"][name]["value"])
                for p in pairs.values()
                if name in p["parent"]["metrics"] and name in p["change"]["metrics"]
            ]
            if not rows:
                continue
            parent = [a for a, _ in rows]
            change = [b for _, b in rows]
            sign = 1 if better == "lower" else -1
            wins = sum(1 for a, b in rows if sign * (a - b) > 0)
            losses = sum(1 for a, b in rows if sign * (b - a) > 0)
            p1, p2, p3 = quartiles(parent)
            c1, c2, c3 = quartiles(change)
            gap = sign * (p2 - c2)  # positive when the change is better
            claim = wins >= WIN_SHARE * len(rows) and gap > p3 - p1
            rel = (c2 - p2) / p2 * 100 if p2 else 0.0
            beyond = -gap > bound * abs(p2)  # the change's median worse by more than the bound
            out.append(
                f"  {name}: parent {p2:.4g} [{p1:.4g}, {p3:.4g}]  change {c2:.4g} [{c1:.4g}, {c3:.4g}]"
                f"  ({rel:+.1f}%)  change better {wins}/{len(rows)}, worse {losses}/{len(rows)}"
                f"  gain claimable: {'yes' if claim else 'no'}"
                f"  worse beyond the {bound:.0%} bound: {'YES' if beyond else 'no'}"
            )
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", action="append", help="repeatable")
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 1,4,7")
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--out", type=Path, help="append each run's result here as a JSON line")
    parser.add_argument("--summarize", type=Path, help="summarize this file of results; run nothing")
    parser.add_argument("--benchmark", type=Path, help="BENCHMARK.json (default: the parent's)")
    args = parser.parse_args(argv)

    bench = args.benchmark or (args.parent / "BENCHMARK.json" if args.parent else None)
    if bench is None:
        parser.error("--benchmark or --parent is required")
    metrics = {m["name"]: (m["better"], m["bound"]) for m in json.loads(bench.read_text())["end_to_end"]}

    if args.summarize:
        records = [json.loads(line) for line in args.summarize.read_text().splitlines() if line.strip()]
    else:
        if not (args.parent and args.change and args.workload):
            parser.error("--parent, --change and --workload are required to run pairs")
        if args.parent.resolve().parent != args.change.resolve().parent:
            print(
                f"warning: {args.parent} and {args.change} are not in the same directory; "
                "where a checkout sits can move a metric by itself",
                file=sys.stderr,
            )
        records = []
        for workload in args.workload:
            for i, seed in enumerate(parse_seeds(args.seeds)):
                sides = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                for side in sides:
                    checkout = args.parent if side == "parent" else args.change
                    result = run_one(checkout.resolve(), workload, seed, args.seconds)
                    record = {"workload": workload, "seed": seed, "side": side, "result": result}
                    records.append(record)
                    if args.out:
                        with open(args.out, "a") as fh:
                            fh.write(json.dumps(record, sort_keys=True) + "\n")
                    print(f"{workload} seed {seed} {side}: correct={result['correct']}", file=sys.stderr)
    print("\n".join(summarize(records, metrics)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
