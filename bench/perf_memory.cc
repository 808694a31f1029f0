// Heap-allocation profile of the shelf workload on the data plane (interned
// strings, pooled tuple buffers, incremental window evaluation). A global
// operator-new hook counts allocations and bytes per steady-state tick; both
// figures are written to BENCH_memory.json, whose allocs_per_tick CI gates.

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>

#include "bench/bench_util.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/time.h"
#include "core/processor.h"
#include "core/toolkit.h"
#include "sim/reading.h"
#include "stream/tuple.h"

// --- Global allocation counters -------------------------------------------
// Relaxed atomics: the workload is single-threaded; the counters only need
// to not tear. Counting lives in the replaceable global operator new/delete,
// so every container/string/node allocation in the pipeline is visible.

namespace {
std::atomic<uint64_t> g_allocs{0};
std::atomic<uint64_t> g_bytes{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  g_bytes.fetch_add(size, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void* operator new(std::size_t size, std::align_val_t align) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  g_bytes.fetch_add(size, std::memory_order_relaxed);
  if (void* p = std::aligned_alloc(static_cast<std::size_t>(align),
                                   (size + static_cast<std::size_t>(align) -
                                    1) &
                                       ~(static_cast<std::size_t>(align) - 1))) {
    return p;
  }
  throw std::bad_alloc();
}

void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace esp::bench {
namespace {

constexpr int kWarmupTicks = 100;
constexpr int kMeasuredTicks = 1000;

struct MemoryResult {
  double allocs_per_tick = 0;
  double bytes_per_tick = 0;
};

StatusOr<MemoryResult> Measure() {
  core::EspProcessor processor;
  ESP_RETURN_IF_ERROR(processor.AddProximityGroup(
      {"pg0", "rfid", core::SpatialGranule{"shelf_0"}, {"reader_0"}}));
  ESP_RETURN_IF_ERROR(processor.AddProximityGroup(
      {"pg1", "rfid", core::SpatialGranule{"shelf_1"}, {"reader_1"}}));
  core::DeviceTypePipeline pipeline;
  pipeline.device_type = "rfid";
  pipeline.reading_schema = sim::RfidReadingSchema();
  pipeline.receptor_id_column = "reader_id";
  pipeline.smooth = core::SmoothPresenceCount(
      core::TemporalGranule(Duration::Seconds(5)), "tag_id");
  pipeline.arbitrate = core::ArbitrateMaxCount("tag_id", "reads");
  ESP_RETURN_IF_ERROR(processor.AddPipeline(std::move(pipeline)));
  ESP_RETURN_IF_ERROR(processor.Start());

  MemoryResult result;
  Rng rng(13);
  stream::SchemaRef schema = sim::RfidReadingSchema();
  int64_t tick = 0;
  const auto run_tick = [&]() -> Status {
    const Timestamp now = Timestamp::Micros(200000 * tick);
    for (int reader = 0; reader < 2; ++reader) {
      for (int tag = 0; tag < 10; ++tag) {
        if (rng.Bernoulli(0.5)) {
          ESP_RETURN_IF_ERROR(processor.Push(
              "rfid",
              stream::Tuple(
                  schema,
                  {stream::Value::Interned("reader_" + std::to_string(reader)),
                   stream::Value::Interned("tag_" + std::to_string(tag))},
                  now)));
        }
      }
    }
    ESP_RETURN_IF_ERROR(processor.Tick(now).status());
    ++tick;
    return Status::OK();
  };

  for (int i = 0; i < kWarmupTicks; ++i) ESP_RETURN_IF_ERROR(run_tick());

  const uint64_t allocs_before = g_allocs.load(std::memory_order_relaxed);
  const uint64_t bytes_before = g_bytes.load(std::memory_order_relaxed);
  for (int i = 0; i < kMeasuredTicks; ++i) ESP_RETURN_IF_ERROR(run_tick());
  result.allocs_per_tick =
      static_cast<double>(g_allocs.load(std::memory_order_relaxed) -
                          allocs_before) /
      kMeasuredTicks;
  result.bytes_per_tick =
      static_cast<double>(g_bytes.load(std::memory_order_relaxed) -
                          bytes_before) /
      kMeasuredTicks;
  return result;
}

int Run(const std::string& out_dir) {
  StatusOr<MemoryResult> result = Measure();
  if (!result.ok()) {
    std::fprintf(stderr, "memory bench failed: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }

  std::printf("=== Heap allocations per shelf tick (%d measured ticks) ===\n\n",
              kMeasuredTicks);
  std::printf("%16s %16s\n", "allocs/tick", "bytes/tick");
  std::printf("%16.1f %16.0f\n", result->allocs_per_tick,
              result->bytes_per_tick);

  const std::string out_path = OutputPath(out_dir, "BENCH_memory.json");
  FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(f,
               "{\n  \"bench\": \"memory\",\n  \"build\": %s,\n"
               "  \"measured_ticks\": %d,\n  \"allocs_per_tick\": %.2f,\n"
               "  \"bytes_per_tick\": %.0f\n}\n",
               BuildFlagsJson().c_str(), kMeasuredTicks,
               result->allocs_per_tick, result->bytes_per_tick);
  std::fclose(f);
  std::printf("Written to %s\n", out_path.c_str());
  return 0;
}

}  // namespace
}  // namespace esp::bench

int main(int argc, char** argv) {
  return esp::bench::Run(esp::bench::ParseOutputDir(&argc, argv));
}
