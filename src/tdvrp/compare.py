"""Time-dependent solver versus the classical time-averaged baseline.

For each seed the instance is solved twice: once against the multi-layer
matrix and once against its layer average. The baseline tour is then
re-evaluated under the multi-layer matrix, so both costs measure real driving
time and the gap is not confounded by which matrix priced it. The baseline
tour's cost under its own averaged matrix is also reported for reference.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, replace

from .errors import InputError
from .grasp import solve
from .model import (
    Instance,
    MultiLayerMatrix,
    SolverParams,
    _integer,
    average_matrix,
    evaluate_route,
)


@dataclass(frozen=True)
class CompareRow:
    seed: int
    cost_multi_layer: int | float  # tour optimized and priced on the layered matrix
    cost_classical: int | float  # averaged-matrix tour, re-priced on the layers
    gap_percent: float  # 100 * (c_ml - c_2d) / c_2d, or 0.0 when both are 0
    cost_classical_own: float  # averaged-matrix tour under its own matrix


@dataclass(frozen=True)
class CompareReport:
    rows: tuple[CompareRow, ...]

    @property
    def mean_gap_percent(self) -> float:
        return sum(r.gap_percent for r in self.rows) / len(self.rows)

    @property
    def mean_cost_multi_layer(self) -> float:
        return sum(r.cost_multi_layer for r in self.rows) / len(self.rows)

    @property
    def mean_cost_classical(self) -> float:
        return sum(r.cost_classical for r in self.rows) / len(self.rows)


def run_compare(
    instance: Instance, matrix: MultiLayerMatrix, params: SolverParams, n_seeds: int
) -> CompareReport:
    """One CompareRow per seed params.seed, params.seed+1, ..."""
    n_seeds = _integer(n_seeds, "n_seeds", 1)
    averaged = average_matrix(matrix)
    rows = []
    for offset in range(n_seeds):
        run_params = replace(params, seed=params.seed + offset)
        layered = solve(instance, matrix, run_params)
        baseline = solve(instance, averaged, run_params)
        c_ml = layered.best_schedule.total_cost
        c_2d = evaluate_route(baseline.best_route, matrix).total_cost
        if c_ml and not c_2d:
            raise InputError(f"seed {run_params.seed}: the averaged tour costs 0 s; gap undefined")
        gap = 100.0 * (c_ml - c_2d) / c_2d if c_2d else 0.0
        rows.append(
            CompareRow(
                seed=run_params.seed,
                cost_multi_layer=c_ml,
                cost_classical=c_2d,
                gap_percent=gap,
                cost_classical_own=baseline.best_schedule.total_cost,
            )
        )
    return CompareReport(rows=tuple(rows))


def format_hm(seconds) -> str:
    """Whole seconds as H:MM."""
    total = int(round(seconds))
    return f"{total // 3600}:{total % 3600 // 60:02d}"


def report_csv(report: CompareReport) -> str:
    out = io.StringIO()
    out.write("seed,c_ml_s,c_2d_s,gap_percent,c_2d_own_matrix_s\n")
    for r in report.rows:
        out.write(
            f"{r.seed},{int(round(r.cost_multi_layer))},{int(round(r.cost_classical))},"
            f"{r.gap_percent:.3f},{r.cost_classical_own:.1f}\n"
        )
    out.write(
        f"mean,{report.mean_cost_multi_layer:.1f},{report.mean_cost_classical:.1f},"
        f"{report.mean_gap_percent:.3f},\n"
    )
    return out.getvalue()


def report_table(report: CompareReport) -> str:
    lines = ["run   multi-layer   classical   gap"]
    for i, r in enumerate(report.rows, start=1):
        lines.append(
            f"{i:<6}{format_hm(r.cost_multi_layer):<14}"
            f"{format_hm(r.cost_classical):<12}{r.gap_percent:+.3f}%"
        )
    lines.append(
        f"mean  {format_hm(report.mean_cost_multi_layer):<14}"
        f"{format_hm(report.mean_cost_classical):<12}{report.mean_gap_percent:+.3f}%"
    )
    return "\n".join(lines)
