#ifndef PROST_CLUSTER_COST_MODEL_H_
#define PROST_CLUSTER_COST_MODEL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "cluster/config.h"

namespace prost::cluster {

/// Aggregate execution counters, reported alongside simulated time so that
/// benchmarks (and the A3 ablation) can show *why* a plan is slow.
struct ExecutionCounters {
  uint64_t bytes_scanned = 0;
  uint64_t bytes_shuffled = 0;
  uint64_t bytes_broadcast = 0;
  uint64_t rows_processed = 0;
  uint64_t kv_seeks = 0;
  uint64_t stages = 0;

  ExecutionCounters& operator+=(const ExecutionCounters& other);
};

/// Deterministic simulated clock for the cluster.
///
/// Usage: operators open a stage, charge per-worker work (scan bytes, CPU
/// rows) and cluster-wide transfers (shuffle, broadcast), then close the
/// stage. Closing a stage advances the clock by the *maximum* worker busy
/// time (workers run in parallel; the straggler gates the stage, as in
/// Spark's BSP model) plus transfer time plus fixed stage overhead.
///
/// NOT thread-safe by contract: all Charge* calls happen on the
/// coordinating thread outside parallel regions (DESIGN.md §7), so the
/// model owns no Mutex and sits outside the §11 lock hierarchy —
/// simulated time must not observe host parallelism.
class CostModel {
 public:
  explicit CostModel(const ClusterConfig& config);

  const ClusterConfig& config() const { return config_; }

  /// Opens a named stage. Stages must not nest.
  void BeginStage(const std::string& label);

  /// Charges `bytes` of columnar scan I/O to `worker`.
  void ChargeScan(uint32_t worker, uint64_t bytes);

  /// Charges `rows` of CPU row processing to `worker`.
  void ChargeCpuRows(uint32_t worker, uint64_t rows);

  /// Charges a sorted-KV seek plus `rows` sequential row reads to
  /// `worker` (Rya baseline).
  void ChargeKvSeek(uint32_t worker, uint64_t rows);

  /// Charges `rows` of loading-phase ingest work to `worker` (text
  /// parsing, dictionary encoding, table write-out — the slow path of the
  /// paper's Table 1 loading experiment).
  void ChargeLoadRows(uint32_t worker, uint64_t rows);

  /// Charges an all-to-all shuffle of `bytes` total. Each worker sends and
  /// receives ~bytes/num_workers in parallel over its own link.
  void ChargeShuffle(uint64_t bytes);

  /// Charges broadcasting `bytes` from one worker to all others (Spark's
  /// broadcast join: the driver ships the small relation everywhere).
  void ChargeBroadcast(uint64_t bytes);

  /// Closes the current stage, folding charges into the clock.
  void EndStage();

  /// Charges the fixed per-query driver overhead.
  void ChargeQueryOverhead();

  double ElapsedMillis() const { return elapsed_sec_ * 1000.0; }
  double ElapsedSeconds() const { return elapsed_sec_; }

  /// Simulated milliseconds *including* the open stage's pending
  /// contribution (current straggler busy time + transfer time). The
  /// clock itself only advances at EndStage — by the max over workers —
  /// so per-operator attribution can't sum individual charges; instead,
  /// observability takes deltas of this monotone "accounted" clock,
  /// giving each operator its marginal contribution to the straggler
  /// path. Deltas telescope: they sum exactly to ElapsedMillis() once
  /// all stages are closed. Monotone because EndStage folds at least the
  /// pending amount into elapsed_sec_ before BeginStage zeroes it.
  double AccountedMillis() const;
  const ExecutionCounters& counters() const { return counters_; }

  /// Resets the clock and the counters.
  void Reset();

 private:
  ClusterConfig config_;
  double elapsed_sec_ = 0;
  ExecutionCounters counters_;

  bool in_stage_ = false;
  std::string stage_label_;
  std::vector<double> worker_busy_sec_;
  double stage_transfer_sec_ = 0;
};

}  // namespace prost::cluster

#endif  // PROST_CLUSTER_COST_MODEL_H_
