// Unit tests for the cluster simulator: cost model stage semantics,
// counters, and config scaling.

#include <gtest/gtest.h>

#include "cluster/config.h"
#include "cluster/cost_model.h"

namespace prost::cluster {
namespace {

ClusterConfig SimpleConfig() {
  ClusterConfig config;
  config.num_workers = 4;
  config.scan_bytes_per_sec = 100.0;     // 100 B/s -> easy arithmetic
  config.cpu_rows_per_sec = 10.0;        // 10 rows/s
  config.network_bytes_per_sec = 25.0;   // 25 B/s per link
  config.stage_overhead_sec = 1.0;
  config.query_overhead_sec = 0.5;
  config.shuffle_latency_sec = 0.25;
  config.kv_seek_sec = 2.0;
  config.load_rows_per_sec = 5.0;
  return config;
}

TEST(CostModelTest, EmptyStageCostsOverheadOnly) {
  CostModel cost(SimpleConfig());
  cost.BeginStage("noop");
  cost.EndStage();
  EXPECT_DOUBLE_EQ(cost.ElapsedSeconds(), 1.0);
  EXPECT_EQ(cost.counters().stages, 1u);
}

TEST(CostModelTest, StageTakesMaxOverWorkers) {
  CostModel cost(SimpleConfig());
  cost.BeginStage("scan");
  cost.ChargeScan(0, 200);  // 2s
  cost.ChargeScan(1, 500);  // 5s  <- straggler
  cost.ChargeScan(2, 100);  // 1s
  cost.EndStage();
  EXPECT_DOUBLE_EQ(cost.ElapsedSeconds(), 5.0 + 1.0);
}

TEST(CostModelTest, ScanAndCpuAccumulatePerWorker) {
  CostModel cost(SimpleConfig());
  cost.BeginStage("mixed");
  cost.ChargeScan(0, 100);    // 1s
  cost.ChargeCpuRows(0, 20);  // 2s -> worker 0 at 3s total
  cost.ChargeCpuRows(1, 10);  // 1s
  cost.EndStage();
  EXPECT_DOUBLE_EQ(cost.ElapsedSeconds(), 3.0 + 1.0);
}

TEST(CostModelTest, ShuffleSharedAcrossLinksPlusLatency) {
  CostModel cost(SimpleConfig());
  cost.BeginStage("exchange");
  // 400 bytes over 4 links x 25 B/s = 4s, plus 0.25s latency.
  cost.ChargeShuffle(400);
  cost.EndStage();
  EXPECT_DOUBLE_EQ(cost.ElapsedSeconds(), 4.0 + 0.25 + 1.0);
  EXPECT_EQ(cost.counters().bytes_shuffled, 400u);
}

TEST(CostModelTest, BroadcastUsesSingleLinkRate) {
  CostModel cost(SimpleConfig());
  cost.BeginStage("bcast");
  cost.ChargeBroadcast(50);  // 50 / 25 = 2s
  cost.EndStage();
  EXPECT_DOUBLE_EQ(cost.ElapsedSeconds(), 2.0 + 1.0);
  EXPECT_EQ(cost.counters().bytes_broadcast, 50u * 4);
}

TEST(CostModelTest, KvSeekChargesLatencyPlusRows) {
  CostModel cost(SimpleConfig());
  cost.BeginStage("rya");
  cost.ChargeKvSeek(0, 10);  // 2s + 1s rows
  cost.ChargeKvSeek(0, 0);   // 2s
  cost.EndStage();
  EXPECT_DOUBLE_EQ(cost.ElapsedSeconds(), 5.0 + 1.0);
  EXPECT_EQ(cost.counters().kv_seeks, 2u);
}

TEST(CostModelTest, LoadRowsUseLoadRate) {
  CostModel cost(SimpleConfig());
  cost.BeginStage("ingest");
  cost.ChargeLoadRows(0, 10);  // 2s at 5 rows/s
  cost.EndStage();
  EXPECT_DOUBLE_EQ(cost.ElapsedSeconds(), 2.0 + 1.0);
}

TEST(CostModelTest, WorkerIndexWraps) {
  CostModel cost(SimpleConfig());
  cost.BeginStage("wrap");
  cost.ChargeCpuRows(6, 10);  // worker 6 % 4 == 2
  cost.EndStage();
  EXPECT_DOUBLE_EQ(cost.ElapsedSeconds(), 1.0 + 1.0);
}

TEST(CostModelTest, StagesAreIndependent) {
  CostModel cost(SimpleConfig());
  cost.BeginStage("a");
  cost.ChargeCpuRows(0, 10);  // 1s
  cost.EndStage();
  cost.BeginStage("b");
  cost.ChargeCpuRows(0, 20);  // 2s -- not 3s; per-stage accumulators reset
  cost.EndStage();
  EXPECT_DOUBLE_EQ(cost.ElapsedSeconds(), (1.0 + 1.0) + (2.0 + 1.0));
}

TEST(CostModelTest, EndWithoutBeginIsNoop) {
  CostModel cost(SimpleConfig());
  cost.EndStage();
  EXPECT_DOUBLE_EQ(cost.ElapsedSeconds(), 0.0);
  EXPECT_EQ(cost.counters().stages, 0u);
}

TEST(CostModelTest, QueryOverhead) {
  CostModel cost(SimpleConfig());
  cost.ChargeQueryOverhead();
  EXPECT_DOUBLE_EQ(cost.ElapsedSeconds(), 0.5);
}

TEST(CostModelTest, ResetClearsEverything) {
  CostModel cost(SimpleConfig());
  cost.BeginStage("s");
  cost.ChargeShuffle(100);
  cost.EndStage();
  cost.Reset();
  EXPECT_DOUBLE_EQ(cost.ElapsedSeconds(), 0.0);
  EXPECT_EQ(cost.counters().bytes_shuffled, 0u);
  EXPECT_EQ(cost.counters().stages, 0u);
}

TEST(CountersTest, Accumulate) {
  ExecutionCounters a, b;
  a.bytes_scanned = 1;
  a.rows_processed = 2;
  b.bytes_scanned = 10;
  b.stages = 3;
  a += b;
  EXPECT_EQ(a.bytes_scanned, 11u);
  EXPECT_EQ(a.rows_processed, 2u);
  EXPECT_EQ(a.stages, 3u);
}

TEST(ConfigTest, ScaleToDatasetPreservesRegime) {
  ClusterConfig config;
  double base_cpu = config.cpu_rows_per_sec;
  double base_seek = config.kv_seek_sec;
  uint64_t base_threshold = config.broadcast_threshold_bytes;
  config.ScaleToDataset(1'000'000);  // 1% of the 100M reference.
  EXPECT_DOUBLE_EQ(config.cpu_rows_per_sec, base_cpu * 0.01);
  EXPECT_DOUBLE_EQ(config.kv_seek_sec, base_seek / 0.01);
  EXPECT_EQ(config.broadcast_threshold_bytes,
            static_cast<uint64_t>(base_threshold * 0.01));
  // Fixed engine latencies do not scale.
  ClusterConfig fresh;
  EXPECT_DOUBLE_EQ(config.stage_overhead_sec, fresh.stage_overhead_sec);
}

TEST(ConfigTest, ScaleToDatasetClampsThreshold) {
  ClusterConfig config;
  config.ScaleToDataset(1);  // Absurdly small dataset.
  EXPECT_GE(config.broadcast_threshold_bytes, 1024u);
}

TEST(ConfigTest, ScaleToZeroIsNoop) {
  ClusterConfig config;
  double base = config.cpu_rows_per_sec;
  config.ScaleToDataset(0);
  EXPECT_DOUBLE_EQ(config.cpu_rows_per_sec, base);
}

}  // namespace
}  // namespace prost::cluster
