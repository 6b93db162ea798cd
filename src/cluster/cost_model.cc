#include "cluster/cost_model.h"

#include <algorithm>

#include "common/logging.h"
#include "common/str_util.h"

namespace prost::cluster {

ExecutionCounters& ExecutionCounters::operator+=(
    const ExecutionCounters& other) {
  bytes_scanned += other.bytes_scanned;
  bytes_shuffled += other.bytes_shuffled;
  bytes_broadcast += other.bytes_broadcast;
  rows_processed += other.rows_processed;
  kv_seeks += other.kv_seeks;
  stages += other.stages;
  return *this;
}

CostModel::CostModel(const ClusterConfig& config) : config_(config) {
  worker_busy_sec_.resize(config_.num_workers, 0.0);
}

void CostModel::BeginStage(const std::string& label) {
  if (in_stage_) {
    // Programming error in an operator; close the previous stage so the
    // clock stays monotone rather than silently dropping charges.
    PROST_WARN("BeginStage('%s') while stage '%s' open", label.c_str(),
               stage_label_.c_str());
    EndStage();
  }
  in_stage_ = true;
  stage_label_ = label;
  std::fill(worker_busy_sec_.begin(), worker_busy_sec_.end(), 0.0);
  stage_transfer_sec_ = 0;
}

void CostModel::ChargeScan(uint32_t worker, uint64_t bytes) {
  worker_busy_sec_[worker % config_.num_workers] +=
      static_cast<double>(bytes) / config_.scan_bytes_per_sec;
  counters_.bytes_scanned += bytes;
}

void CostModel::ChargeCpuRows(uint32_t worker, uint64_t rows) {
  worker_busy_sec_[worker % config_.num_workers] +=
      static_cast<double>(rows) / config_.cpu_rows_per_sec;
  counters_.rows_processed += rows;
}

void CostModel::ChargeKvSeek(uint32_t worker, uint64_t rows) {
  worker_busy_sec_[worker % config_.num_workers] +=
      config_.kv_seek_sec +
      static_cast<double>(rows) / config_.cpu_rows_per_sec;
  ++counters_.kv_seeks;
  counters_.rows_processed += rows;
}

void CostModel::ChargeLoadRows(uint32_t worker, uint64_t rows) {
  worker_busy_sec_[worker % config_.num_workers] +=
      static_cast<double>(rows) / config_.load_rows_per_sec;
  counters_.rows_processed += rows;
}

void CostModel::ChargeShuffle(uint64_t bytes) {
  // All workers exchange in parallel; each link carries ~1/num_workers of
  // the traffic, and every byte crosses the network once. Every exchange
  // additionally pays the engine's fixed shuffle latency.
  stage_transfer_sec_ +=
      config_.shuffle_latency_sec +
      static_cast<double>(bytes) /
      (config_.network_bytes_per_sec * config_.num_workers);
  counters_.bytes_shuffled += bytes;
}

void CostModel::ChargeBroadcast(uint64_t bytes) {
  // The driver serializes once and ships to every worker; BitTorrent-ish
  // broadcast in Spark still costs ~bytes per receiving link, done in
  // parallel, so the wall time is ~bytes / link bandwidth.
  stage_transfer_sec_ +=
      static_cast<double>(bytes) / config_.network_bytes_per_sec;
  counters_.bytes_broadcast += bytes * config_.num_workers;
}

void CostModel::EndStage() {
  if (!in_stage_) return;
  double busiest =
      *std::max_element(worker_busy_sec_.begin(), worker_busy_sec_.end());
  elapsed_sec_ += busiest + stage_transfer_sec_ + config_.stage_overhead_sec;
  ++counters_.stages;
  in_stage_ = false;
}

double CostModel::AccountedMillis() const {
  double pending_sec = 0;
  if (in_stage_) {
    pending_sec =
        *std::max_element(worker_busy_sec_.begin(), worker_busy_sec_.end()) +
        stage_transfer_sec_;
  }
  return (elapsed_sec_ + pending_sec) * 1000.0;
}

void CostModel::ChargeQueryOverhead() {
  elapsed_sec_ += config_.query_overhead_sec;
}

void CostModel::Reset() {
  elapsed_sec_ = 0;
  counters_ = ExecutionCounters{};
  in_stage_ = false;
  std::fill(worker_busy_sec_.begin(), worker_busy_sec_.end(), 0.0);
  stage_transfer_sec_ = 0;
}

}  // namespace prost::cluster
