// Golden corpus for the three versioned text formats: "ncckpt" engine
// checkpoints, "nchub" telemetry hubs and "ncplay" scenarios. The
// documents under tests/golden/ were written by an earlier build; every
// one must still parse, and re-serializing it must reproduce the file
// byte for byte. The "nchub 1" document must load and upgrade to exactly
// the recorded "nchub 2" form.
//
// The corpus covers:
//   * ncckpt: checkpoints taken by five traced kill-at-every-access runs -
//     plain (every access kept), with a fault injector, with a faulty
//     replica fleet, with a settled top-k prefix (k = 8), and
//     theta-approximate (complete-top-k collector engaged), the last four
//     thinned to every 9th or 10th access;
//   * nchub: twelve randomly fed hubs (sketches, wrapped and partial hedge
//     rings, cost EWMAs, fleet health, profile rollups) and one version-1
//     document with its version-2 re-serialization;
//   * ncplay: twenty generated chaos variants.
//
// Regenerate (only when a format changes on purpose):
//   NC_RECORD_TEXT_GOLDEN_WRITE=1 ./build/tests/record_text_golden_test

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "access/fault.h"
#include "access/source.h"
#include "common/rng.h"
#include "core/checkpoint.h"
#include "core/engine.h"
#include "core/srg_policy.h"
#include "data/generator.h"
#include "obs/profiler.h"
#include "obs/telemetry.h"
#include "playbook/scenario.h"
#include "playbook/variant.h"
#include "replica/replica.h"
#include "scoring/scoring_function.h"

namespace nc {
namespace {

namespace fs = std::filesystem;

const fs::path kCorpus = fs::path(NC_GOLDEN_DIR) / "record_text";

// Expected corpus sizes: a missing or extra file fails loudly instead of
// shrinking the proof.
constexpr size_t kCheckpointDocs = 25;
constexpr size_t kHubDocs = 12;
constexpr size_t kScenarioDocs = 20;

bool Writing() {
  return std::getenv("NC_RECORD_TEXT_GOLDEN_WRITE") != nullptr;
}

std::string ReadFile(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void WriteFile(const fs::path& path, const std::string& text) {
  fs::create_directories(path.parent_path());
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
}

// Sorted paths of every file under kCorpus/<dir> with the extension.
std::vector<fs::path> CorpusFiles(const std::string& dir,
                                  const std::string& extension) {
  std::vector<fs::path> paths;
  const fs::path root = kCorpus / dir;
  if (!fs::is_directory(root)) return paths;
  for (const fs::directory_entry& entry : fs::directory_iterator(root)) {
    if (entry.path().extension() == extension) paths.push_back(entry.path());
  }
  std::sort(paths.begin(), paths.end());
  return paths;
}

std::string Numbered(const std::string& stem, size_t i) {
  char buffer[16];
  std::snprintf(buffer, sizeof(buffer), "%03zu", i);
  return stem + "_" + buffer;
}

// --- Generators (run only in write mode) ----------------------------------

Dataset MakeData(uint64_t seed, size_t n, size_t m) {
  GeneratorOptions g;
  g.num_objects = n;
  g.num_predicates = m;
  g.seed = seed;
  return GenerateDataset(g);
}

struct CheckpointRun {
  std::string stem;
  uint64_t seed = 0;
  size_t n = 0;
  size_t k = 0;
  double theta = 1.0;
  bool injector = false;
  bool fleet = false;
  // Keep only snapshots taken while the engine held a settled prefix.
  bool settled_only = false;
  // Keep every stride-th snapshot (1 = every access). Each document
  // carries two to six 6 KiB RNG states, so the long runs are thinned.
  size_t stride = 1;
};

// Runs one traced NC query and serializes a checkpoint after every access.
std::vector<std::string> CheckpointsOf(const CheckpointRun& run) {
  const size_t m = 2;
  const Dataset data = MakeData(run.seed, run.n, m);
  AverageFunction avg(m);
  SourceSet sources(&data, CostModel::Uniform(m, 1.0, 1.0));
  sources.EnableTrace();
  FaultInjector injector(/*seed=*/77);
  if (run.injector) {
    FaultProfile flaky;
    flaky.transient_rate = 0.1;
    injector.set_default_profile(flaky);
    injector.Script(1, {FaultKind::kTransient, FaultKind::kTimeout});
    sources.set_fault_injector(&injector);
  }
  ReplicaFleet fleet(/*seed=*/41);
  if (run.fleet) {
    ReplicaSetConfig faulty;
    faulty.replicas.resize(2);
    faulty.replicas[0].faults.transient_rate = 0.2;
    faulty.replicas[1].cost_multiplier = 1.5;
    faulty.replicas[1].latency.jitter = 0.5;
    faulty.routing = RoutingPolicy::kRoundRobin;
    faulty.hedge.delay = 1.25;
    EXPECT_TRUE(fleet.Configure(0, faulty).ok());
    ReplicaSetConfig plain;
    plain.replicas.resize(2);
    EXPECT_TRUE(fleet.Configure(1, plain).ok());
    EXPECT_TRUE(sources.set_replica_fleet(&fleet).ok());
  }
  SRGPolicy policy(SRGConfig::Default(m));
  EngineOptions options;
  options.k = run.k;
  options.approximation_theta = run.theta;
  std::vector<std::string> docs;
  size_t taken = 0;
  NCEngine* engine_ptr = nullptr;
  options.access_callback = [&](size_t) {
    if (run.settled_only && engine_ptr->settled_entries() == 0) return;
    if (taken++ % run.stride != 0) return;
    docs.push_back(SerializeCheckpoint(engine_ptr->Checkpoint()));
  };
  NCEngine engine(&sources, &avg, &policy, options);
  engine_ptr = &engine;
  TopKResult result;
  EXPECT_TRUE(engine.Run(&result).ok());
  return docs;
}

const CheckpointRun kCheckpointRuns[] = {
    {"plain", 33, 10, 2, 1.0, false, false, false, 1},
    {"injector", 34, 40, 3, 1.0, true, false, false, 9},
    {"fleet", 35, 30, 3, 1.0, false, true, false, 10},
    {"settled", 38, 40, 8, 1.0, false, false, true, 10},
    {"theta", 36, 40, 3, 1.2, false, false, false, 10},
};

// Fills a hub across every record kind "nchub 2" carries.
void FeedRandomly(obs::TelemetryHub* hub, uint64_t seed) {
  Rng rng(seed);
  const size_t slots = 1 + rng.UniformInt(4);
  for (size_t s = 0; s < slots; ++s) {
    const PredicateId i = static_cast<PredicateId>(rng.UniformInt(3));
    const size_t r = rng.UniformInt(3);
    const size_t n = 1 + rng.UniformInt(150);  // May wrap the hedge ring.
    for (size_t v = 0; v < n; ++v) {
      hub->ObserveReplicaService(i, r, rng.Uniform01() * 50.0);
    }
    for (size_t v = 0; v < 1 + rng.UniformInt(30); ++v) {
      hub->ObserveCompletion(i, rng.Uniform01() * 20.0);
      hub->ObservePredictionError(i, rng.Uniform01());
    }
    hub->ObserveAccessCost(i, AccessType::kSorted, rng.Uniform01() * 3.0);
    hub->ObserveAccessCost(i, AccessType::kRandom, rng.Uniform01() * 8.0);
    hub->NoteQuery();
  }
  obs::ProfileReport report;
  for (size_t c = 0; c < 1 + rng.UniformInt(4); ++c) {
    obs::ProfileReport::FlatRow row;
    row.center = static_cast<obs::CostCenter>(
        rng.UniformInt(static_cast<uint64_t>(obs::kNumCostCenters)));
    row.self_ns = 1000 + rng.UniformInt(1000000);
    report.flat.push_back(row);
  }
  hub->ObserveProfile(report);
  ReplicaFleet fleet(seed);
  for (PredicateId i = 0; i < 2; ++i) {
    ReplicaSetConfig config;
    config.replicas.resize(2);
    EXPECT_TRUE(fleet.Configure(i, config).ok());
  }
  fleet.runtime(0, 0).dead = rng.Uniform01() < 0.5;
  fleet.runtime(1, 1).breaker_open = true;
  fleet.runtime(1, 1).breaker_open_until = 4.0 + rng.Uniform01();
  fleet.runtime(1, 1).breaker_consecutive = 1 + rng.UniformInt(5);
  fleet.runtime(0, 1).has_ewma = true;
  fleet.runtime(0, 1).ewma_latency = rng.Uniform01() * 7.0;
  hub->CaptureFleetHealth(fleet, /*now=*/rng.Uniform01());
}

// A version-1 document: every record but "profile" (added in version 2).
std::string VersionOneHub() {
  obs::TelemetryHub hub;
  Rng rng(101);
  for (size_t v = 0; v < 90; ++v) {
    hub.ObserveReplicaService(1, 0, rng.Uniform01() * 30.0);
    hub.ObserveCompletion(1, rng.Uniform01() * 12.0);
  }
  hub.ObservePredictionError(0, 0.125);
  hub.ObserveAccessCost(1, AccessType::kRandom, 2.5);
  hub.NoteQuery();
  std::string doc = hub.Serialize();
  EXPECT_EQ(doc.rfind("nchub 2\n", 0), 0u);
  doc[6] = '1';
  return doc;
}

TEST(RecordTextGoldenTest, WriteCorpusOnRequest) {
  if (!Writing()) GTEST_SKIP() << "set NC_RECORD_TEXT_GOLDEN_WRITE to write";
  fs::remove_all(kCorpus);
  for (const CheckpointRun& run : kCheckpointRuns) {
    const std::vector<std::string> docs = CheckpointsOf(run);
    for (size_t i = 0; i < docs.size(); ++i) {
      WriteFile(kCorpus / "ncckpt" / (Numbered(run.stem, i) + ".ncckpt"),
                docs[i]);
    }
  }
  for (uint64_t seed = 1; seed <= kHubDocs; ++seed) {
    obs::TelemetryHub hub;
    FeedRandomly(&hub, seed);
    WriteFile(kCorpus / "nchub" / (Numbered("fed", seed) + ".nchub"),
              hub.Serialize());
  }
  const std::string v1 = VersionOneHub();
  WriteFile(kCorpus / "nchub_v1" / "v1.nchub", v1);
  obs::TelemetryHub upgraded;
  ASSERT_TRUE(upgraded.Deserialize(v1).ok());
  WriteFile(kCorpus / "nchub_v1" / "v1_as_v2.nchub", upgraded.Serialize());
  playbook::VariantGenerator generator(
      playbook::VariantAxes::ChaosDefaults(), 20260809);
  const std::vector<playbook::ScenarioSpec> specs =
      generator.Generate(kScenarioDocs);
  for (size_t i = 0; i < specs.size(); ++i) {
    WriteFile(kCorpus / "ncplay" / (Numbered("chaos", i) + ".ncplay"),
              specs[i].Serialize());
  }
}

// --- The corpus checks ----------------------------------------------------

TEST(RecordTextGoldenTest, CheckpointsReserializeByteIdentically) {
  const std::vector<fs::path> paths = CorpusFiles("ncckpt", ".ncckpt");
  ASSERT_EQ(paths.size(), kCheckpointDocs) << kCorpus;
  for (const fs::path& path : paths) {
    const std::string text = ReadFile(path);
    EngineCheckpoint parsed;
    const Status status = ParseCheckpoint(text, &parsed);
    ASSERT_TRUE(status.ok()) << path << ": " << status;
    EXPECT_EQ(SerializeCheckpoint(parsed), text) << path;
  }
}

TEST(RecordTextGoldenTest, HubsReserializeByteIdentically) {
  const std::vector<fs::path> paths = CorpusFiles("nchub", ".nchub");
  ASSERT_EQ(paths.size(), kHubDocs) << kCorpus;
  for (const fs::path& path : paths) {
    const std::string text = ReadFile(path);
    obs::TelemetryHub hub;
    const Status status = hub.Deserialize(text);
    ASSERT_TRUE(status.ok()) << path << ": " << status;
    EXPECT_EQ(hub.Serialize(), text) << path;
  }
}

TEST(RecordTextGoldenTest, VersionOneHubUpgradesAsRecorded) {
  const std::string v1 = ReadFile(kCorpus / "nchub_v1" / "v1.nchub");
  const std::string v2 = ReadFile(kCorpus / "nchub_v1" / "v1_as_v2.nchub");
  ASSERT_EQ(v1.rfind("nchub 1\n", 0), 0u);
  ASSERT_EQ(v2.rfind("nchub 2\n", 0), 0u);
  obs::TelemetryHub hub;
  const Status status = hub.Deserialize(v1);
  ASSERT_TRUE(status.ok()) << status;
  EXPECT_EQ(hub.Serialize(), v2);
}

TEST(RecordTextGoldenTest, ScenariosReserializeByteIdentically) {
  const std::vector<fs::path> paths = CorpusFiles("ncplay", ".ncplay");
  ASSERT_EQ(paths.size(), kScenarioDocs) << kCorpus;
  for (const fs::path& path : paths) {
    const std::string text = ReadFile(path);
    playbook::ScenarioSpec spec;
    const Status status = playbook::ParseScenario(text, &spec);
    ASSERT_TRUE(status.ok()) << path << ": " << status;
    EXPECT_EQ(spec.Serialize(), text) << path;
  }
}

}  // namespace
}  // namespace nc
