"""Linear-tree cost model fitted against device measurements (Fig. 12).

The paper's compiler does not use analytic formulas directly: for each
operator type it profiles randomly shaped tiles on the device, fits a linear
tree from tile shapes to execution times, and fits a per-link linear model
from transfer volumes to transfer times.  This module reproduces that flow on
top of the synthetic :class:`~repro.cost.device_profile.DeviceProfile`,
including the accuracy evaluation used for Fig. 12.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.arch.chip import ChipConfig
from repro.cost.device_profile import DeviceProfile, TileWorkload
from repro.cost.linear_tree import LinearTreeRegressor
from repro.cost.model import AnalyticCostModel, ExecutionCost
from repro.errors import CostModelError
from repro.ir.operators import Operator
from repro.partition.plan import ExecutePlan, PreloadPlan

#: Operator types that get their own fitted execution-time model.
FITTED_OP_TYPES = ("matmul", "batch_matmul", "elementwise", "reduce", "softmax")


def _features(workload: TileWorkload) -> list[float]:
    """Feature vector of a tile: output dims, reduction, elements, FLOPs, bytes."""
    shape = workload.shape
    m = shape[-2] if len(shape) >= 2 else 1
    n = shape[-1]
    return [
        float(m),
        float(n),
        float(workload.reduction),
        float(workload.output_elements),
        float(workload.flops),
        float(workload.bytes_touched),
    ]


@dataclass
class AccuracyReport:
    """Predicted-vs-measured samples for one fitted model (one Fig. 12 panel).

    Attributes:
        name: Model name (operator type or ``"inter_core_transfer"``).
        predicted: Predicted times (seconds).
        measured: Measured times (seconds).
    """

    name: str
    predicted: np.ndarray
    measured: np.ndarray

    @property
    def mean_absolute_percentage_error(self) -> float:
        """MAPE of the predictions, in percent."""
        mask = self.measured > 0
        return float(
            100.0
            * np.mean(
                np.abs(self.predicted[mask] - self.measured[mask]) / self.measured[mask]
            )
        )

    @property
    def r_squared(self) -> float:
        """Coefficient of determination of predicted vs measured."""
        ss_res = float(np.sum((self.measured - self.predicted) ** 2))
        ss_tot = float(np.sum((self.measured - np.mean(self.measured)) ** 2))
        if ss_tot == 0.0:
            return 1.0 if ss_res == 0.0 else 0.0
        return 1.0 - ss_res / ss_tot


class FittedCostModel(AnalyticCostModel):
    """Cost model whose per-tile execution and transfer times are learned.

    Args:
        chip: Target chip configuration.
        profile: Device profile to fit against (defaults to the chip's core).
        samples_per_op: Profiling samples per operator type.
        seed: Sampling seed.
    """

    def __init__(
        self,
        chip: ChipConfig,
        profile: DeviceProfile | None = None,
        samples_per_op: int = 200,
        seed: int = 0,
    ) -> None:
        super().__init__(chip)
        self.profile = profile or DeviceProfile(chip.core)
        self.samples_per_op = samples_per_op
        self.seed = seed
        self._execution_models: dict[str, LinearTreeRegressor] = {}
        self._transfer_model: LinearTreeRegressor | None = None
        self._fit()

    # ------------------------------------------------------------------ fitting
    def _fit(self) -> None:
        for op_type in FITTED_OP_TYPES:
            workloads = self.profile.sample_workloads(
                op_type, self.samples_per_op, seed=self.seed
            )
            features = np.array([_features(w) for w in workloads])
            targets = np.array([self.profile.execution_time(w) for w in workloads])
            model = LinearTreeRegressor(max_depth=3, min_samples_leaf=10)
            model.fit(features, targets)
            self._execution_models[op_type] = model

        rng = np.random.default_rng(self.seed)
        volumes = rng.integers(1024, 2_000_000, size=self.samples_per_op)
        transfer_features = volumes.reshape(-1, 1).astype(float)
        transfer_targets = np.array(
            [self.profile.transfer_time(int(v)) for v in volumes]
        )
        self._transfer_model = LinearTreeRegressor(max_depth=2, min_samples_leaf=10)
        self._transfer_model.fit(transfer_features, transfer_targets)

    def _model_for(self, op_type: str) -> LinearTreeRegressor:
        if op_type in self._execution_models:
            return self._execution_models[op_type]
        # Vector operators not explicitly fitted reuse the elementwise model.
        return self._execution_models["elementwise"]

    # -------------------------------------------------------------- predictions
    def predict_tile_time(self, workload: TileWorkload) -> float:
        """Predicted per-core execution time of one tile."""
        model = self._model_for(workload.op_type)
        return max(0.0, float(model.predict(np.array(_features(workload)))))

    def predict_transfer_time(self, volume_bytes: int) -> float:
        """Predicted time to move ``volume_bytes`` across one core link."""
        if self._transfer_model is None:
            raise CostModelError("transfer model not fitted")
        if volume_bytes <= 0:
            return 0.0
        return max(
            0.0, float(self._transfer_model.predict(np.array([float(volume_bytes)])))
        )

    # --------------------------------------------------------------- cost model
    def execution_cost(self, op: Operator, plan: ExecutePlan) -> ExecutionCost:
        workload = TileWorkload(
            op_type=op.op_type,
            shape=plan.tile_shape if len(plan.tile_shape) >= 2 else (1,) + plan.tile_shape,
            reduction=max(1, op.reduction_dim // plan.reduction_split),
            dtype=op.output.dtype,
        )
        compute = self.predict_tile_time(workload) * plan.tiles_per_core
        sram = plan.sram_traffic_bytes / self.core.sram_bandwidth
        exchange = (
            self.predict_transfer_time(plan.exchange_bytes_per_core) * self._hops
            if plan.exchange_bytes_per_core
            else 0.0
        )
        contended_sram = sram + plan.exchange_bytes_per_core / self.core.sram_bandwidth
        total = max(compute, contended_sram, exchange)
        return ExecutionCost(
            compute_time=compute,
            sram_time=sram,
            exchange_time=exchange,
            total_time=total,
            exchange_bytes=plan.exchange_bytes_per_core,
        )

    def distribution_time(self, plan: PreloadPlan) -> float:
        return self.predict_transfer_time(plan.distribution_bytes_per_core) * self._hops

    def preload_noc_time(self, plan: PreloadPlan) -> float:
        per_core = plan.preload_noc_bytes_per_core
        if per_core <= 0:
            return 0.0
        inbound = self.predict_transfer_time(per_core) * self._hops
        total_delivered = per_core * plan.execute_plan.cores_used
        controller_out = (
            total_delivered / self.chip.hbm_bandwidth if self.chip.hbm_bandwidth > 0 else 0.0
        )
        return max(inbound, controller_out)

    # ----------------------------------------------------------------- accuracy
    def accuracy_reports(
        self, samples_per_op: int = 100, seed: int = 1234
    ) -> list[AccuracyReport]:
        """Predicted-vs-measured accuracy on held-out samples (Fig. 12).

        Args:
            samples_per_op: Held-out samples per operator type.
            seed: Sampling seed (different from the training seed).

        Returns:
            One :class:`AccuracyReport` per fitted operator type plus one for
            inter-core transfers.
        """
        reports: list[AccuracyReport] = []
        for op_type in FITTED_OP_TYPES:
            workloads = self.profile.sample_workloads(op_type, samples_per_op, seed=seed)
            measured = np.array([self.profile.execution_time(w) for w in workloads])
            predicted = np.array([self.predict_tile_time(w) for w in workloads])
            reports.append(AccuracyReport(op_type, predicted, measured))

        rng = np.random.default_rng(seed)
        volumes = rng.integers(1024, 2_000_000, size=samples_per_op)
        measured = np.array([self.profile.transfer_time(int(v)) for v in volumes])
        predicted = np.array([self.predict_transfer_time(int(v)) for v in volumes])
        reports.append(AccuracyReport("inter_core_transfer", predicted, measured))
        return reports
