// Writes the checkpoint fixtures that engine_tail_test.cc restores: one
// EspProcessor and one 2-shard ShardedEspProcessor snapshot of the fixture
// deployment (tests/engine_tail_fixture.h) after kFixtureTicks ticks. The
// committed files were written by the engines as they stood before the
// post-Merge tail was shared, so the test pins the checkpoint format across
// that refactor. To rewrite them from a build tree of the wanted revision:
//
//   g++ -std=c++20 -O2 -Isrc -Itests tests/data/write_tail_checkpoints.cc \
//     build/src/core/libesp_core.a build/src/sim/libesp_sim.a \
//     build/src/cql/libesp_cql.a build/src/stream/libesp_stream.a \
//     build/src/common/libesp_common.a -pthread -o write_tail_checkpoints
//   ./write_tail_checkpoints tests/data

#include <cstdio>
#include <string>

#include "core/checkpoint.h"
#include "core/sharded_processor.h"
#include "engine_tail_fixture.h"

namespace {

using namespace esp;
using namespace esp::core;

template <typename Engine>
Status WriteSnapshot(Engine& engine, const std::string& path) {
  ESP_RETURN_IF_ERROR(tail_fixture::StartFixtureDeployment(engine));
  ESP_RETURN_IF_ERROR(engine.RegisterQuery("tenant", "shelf_count",
                                           tail_fixture::kFixtureQuery));
  for (int t = 0; t < tail_fixture::kFixtureTicks; ++t) {
    for (const stream::Tuple& reading :
         tail_fixture::ShelfReadings(tail_fixture::kFixtureShelves, t)) {
      ESP_RETURN_IF_ERROR(engine.Push("rfid", reading));
    }
    ESP_RETURN_IF_ERROR(engine.Tick(Timestamp::Seconds(t)).status());
  }
  CheckpointWriter out;
  ESP_RETURN_IF_ERROR(engine.Checkpoint(out));
  const std::string bytes = out.Serialize();
  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr) return Status::IoError("cannot open " + path);
  const size_t written = std::fwrite(bytes.data(), 1, bytes.size(), file);
  std::fclose(file);
  if (written != bytes.size()) return Status::IoError("short write " + path);
  return Status::OK();
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: %s <output dir>\n", argv[0]);
    return 2;
  }
  const std::string dir = argv[1];
  EspProcessor monolith;
  Status status = WriteSnapshot(monolith, dir + "/tail_monolith.ckpt");
  if (status.ok()) {
    ShardedEspProcessor sharded({.num_shards = 2});
    status = WriteSnapshot(sharded, dir + "/tail_sharded2.ckpt");
  }
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return 1;
  }
  return 0;
}
