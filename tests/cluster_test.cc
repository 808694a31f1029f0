#include "cluster/coordinator.h"

#include <signal.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "cluster/membership.h"
#include "cluster/supervisor.h"
#include "cluster/worker.h"
#include "common/binio.h"
#include "core/processor.h"
#include "core/toolkit.h"
#include "net/socket.h"
#include "net/wire.h"
#include "sim/reading.h"
#include "stream/serialize.h"

namespace esp::cluster {
namespace {

using core::EspProcessor;
using stream::Tuple;

// --- MembershipTable: the pure failure-detection state machine. ---

TEST(MembershipTableTest, HeartbeatRefreshesTheDeadline) {
  MembershipTable table(Duration::Millis(100));
  table.Seat(0, 1, Timestamp::Seconds(0));
  EXPECT_TRUE(table.seated(0));
  EXPECT_EQ(table.epoch(0), 1u);

  // Heartbeats keep arriving: never expired, however much total time passes.
  for (int i = 1; i <= 20; ++i) {
    const Timestamp now = Timestamp::Micros(i * 50 * 1000);
    EXPECT_TRUE(table.RecordHeartbeat(0, 1, now).ok());
    EXPECT_TRUE(table.ExpiredSlots(now).empty());
  }
  // Silence past the deadline expires the slot.
  const Timestamp late = Timestamp::Micros((20 * 50 + 150) * 1000);
  const std::vector<uint32_t> expired = table.ExpiredSlots(late);
  ASSERT_EQ(expired.size(), 1u);
  EXPECT_EQ(expired[0], 0u);
}

TEST(MembershipTableTest, FenceBumpsTheEpochAndRejectsStaleHeartbeats) {
  MembershipTable table(Duration::Millis(100));
  table.Seat(2, 1, Timestamp::Seconds(0));

  const uint64_t next_epoch = table.Fence(2);
  EXPECT_EQ(next_epoch, 2u);
  EXPECT_FALSE(table.seated(2));
  // A fenced (unseated) slot is not expired — it has no deadline to miss.
  EXPECT_TRUE(table.ExpiredSlots(Timestamp::Seconds(10)).empty());

  // The dead worker's last heartbeat arrives late, carrying the old epoch.
  table.Seat(2, next_epoch, Timestamp::Seconds(10));
  const Status stale = table.RecordHeartbeat(2, 1, Timestamp::Seconds(10));
  ASSERT_FALSE(stale.ok());
  EXPECT_EQ(stale.code(), StatusCode::kFailedPrecondition);
  EXPECT_TRUE(table.RecordHeartbeat(2, next_epoch, Timestamp::Seconds(10)).ok());
}

TEST(MembershipTableTest, UnseatedHeartbeatIsTyped) {
  MembershipTable table(Duration::Millis(100));
  const Status unseated = table.RecordHeartbeat(5, 1, Timestamp::Seconds(0));
  ASSERT_FALSE(unseated.ok());
  EXPECT_EQ(unseated.code(), StatusCode::kFailedPrecondition);
}

// --- Cluster-vs-monolith equivalence. ---

core::DeviceTypePipeline RfidPipeline() {
  core::DeviceTypePipeline pipeline;
  pipeline.device_type = "rfid";
  pipeline.reading_schema = sim::RfidReadingSchema();
  pipeline.receptor_id_column = "reader_id";
  pipeline.smooth = core::SmoothPresenceCount(
      core::TemporalGranule(Duration::Seconds(5)), "tag_id");
  pipeline.arbitrate = core::ArbitrateMaxCount("tag_id", "reads");
  return pipeline;
}

std::vector<core::ProximityGroup> FourGroups() {
  std::vector<core::ProximityGroup> groups;
  for (int g = 0; g < 4; ++g) {
    groups.push_back({"pg_shelf" + std::to_string(g), "rfid",
                      core::SpatialGranule{"shelf_" + std::to_string(g)},
                      {"reader_" + std::to_string(g)}});
  }
  return groups;
}

Tuple Rfid(int reader, const std::string& tag, double t) {
  return sim::ToTuple(sim::RfidReading{"reader_" + std::to_string(reader),
                                       tag, Timestamp::Seconds(t)});
}

struct Step {
  std::vector<Tuple> pushes;
  Timestamp tick;
};

std::vector<Step> Script(int ticks) {
  std::vector<Step> steps;
  for (int t = 0; t < ticks; ++t) {
    Step step;
    for (int r = 0; r < 4; ++r) {
      if ((t + r) % 5 == 0) continue;
      step.pushes.push_back(Rfid(r, "res_" + std::to_string(r), t));
    }
    step.pushes.push_back(Rfid(t % 4, "migrant", t));
    step.tick = Timestamp::Seconds(t);
    steps.push_back(std::move(step));
  }
  return steps;
}

std::string Fingerprint(const core::TickResult& result) {
  ByteWriter w;
  w.WriteU32(static_cast<uint32_t>(result.per_type.size()));
  for (const auto& [type, relation] : result.per_type) {
    w.WriteString(type);
    w.WriteU32(static_cast<uint32_t>(relation.size()));
    for (const Tuple& tuple : relation.tuples()) stream::WriteTuple(w, tuple);
  }
  w.WriteBool(result.virtualized.has_value());
  if (result.virtualized.has_value()) {
    w.WriteU32(static_cast<uint32_t>(result.virtualized->size()));
    for (const Tuple& tuple : result.virtualized->tuples()) {
      stream::WriteTuple(w, tuple);
    }
  }
  return std::move(w).Release();
}

std::vector<std::string> GoldenRun(const std::vector<Step>& steps) {
  auto processor = std::make_unique<EspProcessor>();
  for (const core::ProximityGroup& group : FourGroups()) {
    EXPECT_TRUE(processor->AddProximityGroup(group).ok());
  }
  EXPECT_TRUE(processor->AddPipeline(RfidPipeline()).ok());
  EXPECT_TRUE(processor->Start().ok());
  std::vector<std::string> fingerprints;
  for (const Step& step : steps) {
    for (const Tuple& tuple : step.pushes) {
      EXPECT_TRUE(processor->Push("rfid", tuple).ok());
    }
    auto result = processor->Tick(step.tick);
    EXPECT_TRUE(result.ok()) << result.status();
    fingerprints.push_back(Fingerprint(*result));
  }
  return fingerprints;
}

std::string FreshDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/" + name;
  const std::string cmd = "rm -rf '" + dir + "'";
  EXPECT_EQ(std::system(cmd.c_str()), 0);
  return dir;
}

ClusterOptions TestClusterOptions(const std::string& storage_root) {
  ClusterOptions options;
  options.num_workers = 2;
  options.storage_root = storage_root;
  options.fsync = false;  // SIGKILL chaos only; the OS survives.
  options.checkpoint_interval_ticks = 5;
  return options;
}

StatusOr<std::unique_ptr<ClusterCoordinator>> StartCluster(
    const ClusterOptions& options, WorkerSupervisor* supervisor) {
  auto coordinator = std::make_unique<ClusterCoordinator>(options);
  for (const core::ProximityGroup& group : FourGroups()) {
    ESP_RETURN_IF_ERROR(coordinator->AddProximityGroup(group));
  }
  ESP_RETURN_IF_ERROR(coordinator->AddPipeline(RfidPipeline()));
  ESP_RETURN_IF_ERROR(coordinator->Start(supervisor));
  return coordinator;
}

TEST(ClusterTest, MatchesMonolithBitwiseWithoutFaults) {
  const std::vector<Step> steps = Script(12);
  const std::vector<std::string> golden = GoldenRun(steps);

  ForkWorkerSupervisor supervisor;
  auto cluster = StartCluster(
      TestClusterOptions(FreshDir("cluster_no_faults")), &supervisor);
  ASSERT_TRUE(cluster.ok()) << cluster.status();

  for (size_t t = 0; t < steps.size(); ++t) {
    for (const Tuple& tuple : steps[t].pushes) {
      ASSERT_TRUE((*cluster)->Push("rfid", tuple).ok());
    }
    auto result = (*cluster)->Tick(steps[t].tick);
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_EQ(Fingerprint(*result), golden[t]) << "t=" << t;
  }
  EXPECT_EQ((*cluster)->stats().worker_deaths, 0);
  EXPECT_EQ((*cluster)->stats().ticks, 12);
  EXPECT_TRUE((*cluster)->Stop().ok());
}

TEST(ClusterTest, PushValidatesTypeSchemaAndReceptor) {
  ForkWorkerSupervisor supervisor;
  auto cluster = StartCluster(
      TestClusterOptions(FreshDir("cluster_push_validation")), &supervisor);
  ASSERT_TRUE(cluster.ok()) << cluster.status();

  const Status unknown_type = (*cluster)->Push("sonar", Rfid(0, "x", 0));
  EXPECT_EQ(unknown_type.code(), StatusCode::kNotFound);

  const Status unknown_receptor =
      (*cluster)->Push("rfid", sim::ToTuple(sim::RfidReading{
                                   "reader_99", "x", Timestamp::Seconds(0)}));
  EXPECT_EQ(unknown_receptor.code(), StatusCode::kNotFound);

  // Group placement is total and case-insensitive.
  for (const core::ProximityGroup& group : FourGroups()) {
    auto slot = (*cluster)->SlotOfGroup("RFID", group.id);
    ASSERT_TRUE(slot.ok());
    EXPECT_LT(*slot, 2u);
  }
  EXPECT_FALSE((*cluster)->SlotOfGroup("rfid", "pg_nowhere").ok());

  // Every verdict is the monolith's, in code and message.
  EspProcessor single;
  for (const core::ProximityGroup& group : FourGroups()) {
    ASSERT_TRUE(single.AddProximityGroup(group).ok());
  }
  ASSERT_TRUE(single.AddPipeline(RfidPipeline()).ok());
  ASSERT_TRUE(single.Start().ok());
  const auto bad_schema =
      stream::MakeSchema({{"something", stream::DataType::kDouble}});
  const Tuple numeric_reader(sim::RfidReadingSchema(),
                             {stream::Value::Int64(7),
                              stream::Value::String("x")},
                             Timestamp::Seconds(0));
  const std::vector<std::pair<std::string, Tuple>> pushes = {
      {"sonar", Rfid(0, "x", 0)},
      {"rfid", Tuple(bad_schema, {stream::Value::Double(1.0)},
                     Timestamp::Seconds(0))},
      {"RFID", numeric_reader},
      {"rfid", sim::ToTuple(sim::RfidReading{"reader_99", "x",
                                             Timestamp::Seconds(0)})},
  };
  for (const auto& [type, reading] : pushes) {
    const Status expected = single.Push(type, reading);
    ASSERT_FALSE(expected.ok());
    EXPECT_EQ((*cluster)->Push(type, reading).ToString(), expected.ToString());
  }
  EXPECT_EQ((*cluster)->stats().readings_routed, 0);
}

TEST(ClusterTest, ConfigurationIsValidatedWhenSet) {
  ClusterCoordinator cluster(TestClusterOptions(FreshDir("cluster_config")));
  core::DeviceTypePipeline no_schema = RfidPipeline();
  no_schema.reading_schema = nullptr;
  EXPECT_EQ(cluster.AddPipeline(no_schema).code(),
            StatusCode::kInvalidArgument);
  core::DeviceTypePipeline bad_column = RfidPipeline();
  bad_column.receptor_id_column = "antenna";
  EXPECT_EQ(cluster.AddPipeline(bad_column).code(),
            StatusCode::kInvalidArgument);
  ASSERT_TRUE(cluster.AddPipeline(RfidPipeline()).ok());
  EXPECT_EQ(cluster.AddPipeline(RfidPipeline()).code(),
            StatusCode::kAlreadyExists);

  core::HealthPolicy policy;
  policy.staleness_threshold = Duration::Seconds(1);
  policy.lateness_horizon = Duration::Seconds(2);
  EXPECT_EQ(cluster.SetHealthPolicy(policy).code(),
            StatusCode::kInvalidArgument);
}

TEST(ClusterTest, SigkilledWorkerFailsOverAndStaysBitwiseIdentical) {
  const std::vector<Step> steps = Script(16);
  const std::vector<std::string> golden = GoldenRun(steps);

  ForkWorkerSupervisor supervisor;
  auto cluster = StartCluster(
      TestClusterOptions(FreshDir("cluster_failover")), &supervisor);
  ASSERT_TRUE(cluster.ok()) << cluster.status();

  for (size_t t = 0; t < steps.size(); ++t) {
    if (t == 8) {
      // SIGKILL behind the coordinator's back, mid-stream and between
      // checkpoints: the replacement must recover checkpoint + journal
      // suffix and the tick must come back bit-identical.
      const int64_t pid = (*cluster)->worker_pid(0);
      ASSERT_GT(pid, 0);
      ASSERT_EQ(::kill(static_cast<pid_t>(pid), SIGKILL), 0);
    }
    for (const Tuple& tuple : steps[t].pushes) {
      ASSERT_TRUE((*cluster)->Push("rfid", tuple).ok());
    }
    auto result = (*cluster)->Tick(steps[t].tick);
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_EQ(Fingerprint(*result), golden[t]) << "t=" << t;
  }

  const ClusterStats& stats = (*cluster)->stats();
  EXPECT_EQ(stats.worker_deaths, 1);
  EXPECT_EQ(stats.workers_spawned, 3);  // 2 initial + 1 replacement.
  ASSERT_EQ(stats.recovery_ms.size(), 1u);
  EXPECT_GT(stats.recovery_ms[0], 0.0);
  EXPECT_EQ((*cluster)->worker_epoch(0), 2u);  // Fenced once.
  EXPECT_TRUE((*cluster)->Stop().ok());
}

// --- The coordinator-worker round trip. ---

// A worker answers a tick with a result and an ack. With Nagle's algorithm
// on either end of the link, the second write waits for the first one's
// ACK, which the coordinator delays (at least 40 ms on Linux): every tick
// would cost a delayed ACK rather than its cleaning work.
TEST(ClusterTest, MedianTickIsFarBelowADelayedAck) {
  constexpr size_t kWarmupTicks = 20;
  constexpr size_t kMeasuredTicks = 100;
  const std::vector<Step> steps = Script(kWarmupTicks + kMeasuredTicks);

  ForkWorkerSupervisor supervisor;
  auto cluster = StartCluster(
      TestClusterOptions(FreshDir("cluster_tick_latency")), &supervisor);
  ASSERT_TRUE(cluster.ok()) << cluster.status();

  std::vector<double> tick_ms;
  for (size_t t = 0; t < steps.size(); ++t) {
    for (const Tuple& tuple : steps[t].pushes) {
      ASSERT_TRUE((*cluster)->Push("rfid", tuple).ok());
    }
    const auto start = std::chrono::steady_clock::now();
    auto result = (*cluster)->Tick(steps[t].tick);
    const std::chrono::duration<double, std::milli> took =
        std::chrono::steady_clock::now() - start;
    ASSERT_TRUE(result.ok()) << result.status();
    if (t >= kWarmupTicks) tick_ms.push_back(took.count());
  }
  ASSERT_EQ(tick_ms.size(), kMeasuredTicks);
  std::sort(tick_ms.begin(), tick_ms.end());
  const double median = tick_ms[tick_ms.size() / 2];
  EXPECT_LT(median, 20.0) << "median Tick() " << median << " ms, max "
                          << tick_ms.back() << " ms";
  EXPECT_EQ((*cluster)->stats().worker_deaths, 0);
  EXPECT_TRUE((*cluster)->Stop().ok());
}

// --- Worker-side epoch fencing, exercised over a real socket. ---

TEST(ClusterTest, WorkerRefusesAStaleEpochHello) {
  const std::string dir = FreshDir("cluster_stale_epoch");

  WorkerSpawnSpec spec;
  spec.options.slot = 0;
  spec.options.epoch = 2;  // The worker believes epoch 2 is current.
  spec.options.recovery.directory = dir;
  spec.options.recovery.fsync = false;
  spec.factory = []() -> StatusOr<std::unique_ptr<core::StreamEngine>> {
    auto engine = std::make_unique<EspProcessor>();
    ESP_RETURN_IF_ERROR(engine->AddProximityGroup(
        {"pg_shelf0", "rfid", core::SpatialGranule{"shelf_0"},
         {"reader_0"}}));
    ESP_RETURN_IF_ERROR(engine->AddPipeline(RfidPipeline()));
    ESP_RETURN_IF_ERROR(engine->Start());
    return std::unique_ptr<core::StreamEngine>(std::move(engine));
  };

  ForkWorkerSupervisor supervisor;
  auto endpoint = supervisor.Spawn(spec);
  ASSERT_TRUE(endpoint.ok()) << endpoint.status();

  // A zombie coordinator link dials with the fenced epoch 1.
  auto fd = net::TcpConnect("127.0.0.1", endpoint->port, Duration::Seconds(5));
  ASSERT_TRUE(fd.ok()) << fd.status();
  net::ClusterHelloMessage stale;
  stale.slot = 0;
  stale.epoch = 1;
  ASSERT_TRUE(net::SendAll(fd->get(), net::EncodeClusterHello(stale),
                           Duration::Seconds(5))
                  .ok());

  net::FrameDecoder decoder(net::kDefaultMaxFrameBytes);
  std::optional<std::string> payload;
  for (int attempt = 0; attempt < 100 && !payload.has_value(); ++attempt) {
    auto bytes = net::RecvSome(fd->get(), 4096, Duration::Seconds(5));
    ASSERT_TRUE(bytes.ok()) << bytes.status();
    if (bytes->empty()) break;  // Refused and closed before we drained.
    decoder.Feed(*bytes);
    auto next = decoder.Next();
    ASSERT_TRUE(next.ok()) << next.status();
    payload = *next;
  }
  ASSERT_TRUE(payload.has_value());
  auto kind = net::PeekKind(*payload);
  ASSERT_TRUE(kind.ok());
  ASSERT_EQ(*kind, net::MessageKind::kError);
  auto error = net::DecodeError(*payload);
  ASSERT_TRUE(error.ok());
  EXPECT_NE(error->message.find("epoch"), std::string::npos);

  // The current epoch is still welcome: the worker fenced the dial, not
  // itself.
  auto fd2 =
      net::TcpConnect("127.0.0.1", endpoint->port, Duration::Seconds(5));
  ASSERT_TRUE(fd2.ok()) << fd2.status();
  net::ClusterHelloMessage current;
  current.slot = 0;
  current.epoch = 2;
  ASSERT_TRUE(net::SendAll(fd2->get(), net::EncodeClusterHello(current),
                           Duration::Seconds(5))
                  .ok());
  net::FrameDecoder decoder2(net::kDefaultMaxFrameBytes);
  std::optional<std::string> welcome;
  for (int attempt = 0; attempt < 100 && !welcome.has_value(); ++attempt) {
    auto bytes = net::RecvSome(fd2->get(), 4096, Duration::Seconds(5));
    ASSERT_TRUE(bytes.ok()) << bytes.status();
    ASSERT_FALSE(bytes->empty());
    decoder2.Feed(*bytes);
    auto next = decoder2.Next();
    ASSERT_TRUE(next.ok()) << next.status();
    welcome = *next;
  }
  ASSERT_TRUE(welcome.has_value());
  auto welcome_kind = net::PeekKind(*welcome);
  ASSERT_TRUE(welcome_kind.ok());
  EXPECT_EQ(*welcome_kind, net::MessageKind::kWelcome);
  auto decoded = net::DecodeWelcome(*welcome);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->last_applied_seq, 0u);

  EXPECT_TRUE(supervisor.Kill(endpoint->pid).ok());
}

}  // namespace
}  // namespace esp::cluster
