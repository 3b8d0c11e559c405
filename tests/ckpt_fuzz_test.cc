// Deterministic mutation fuzzing over the checkpoint restore surface.
//
// Every section reader must be canonical: given arbitrary bytes it either
// returns a typed error, or it accepts them and a resave of the restored state
// reproduces the section byte for byte. A reader that silently normalizes (a bool
// byte 0x8f read as true, reordered events re-sorted, a duplicate map key merged)
// would let two different checkpoints restore into one state, and a restored run
// could no longer be named by its checkpoint digest. Seeded bit flips, byte
// overwrites and truncations hit each section of a small deployment checkpoint
// (lane engine, replication, a query driver mid-run) and of a two-cell federation
// checkpoint; each mutant is re-sealed with Checkpoint::Add so its bytes get past
// the section checksums and reach the subsystem readers. CI runs this under
// ASan/UBSan, where "typed error, never a crash" has teeth.

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/core/deployment.h"
#include "src/core/federation.h"
#include "src/util/ckpt.h"
#include "src/util/rng.h"
#include "src/workload/query_driver.h"

namespace presto {
namespace {

constexpr int kMutationsPerSection = 20;

std::vector<uint8_t> Mutate(Pcg32& rng, std::vector<uint8_t> bytes) {
  if (bytes.empty()) {
    bytes.push_back(static_cast<uint8_t>(rng.NextU32()));
    return bytes;
  }
  const size_t at = static_cast<size_t>(
      rng.UniformInt(0, static_cast<int64_t>(bytes.size()) - 1));
  switch (rng.UniformInt(0, 2)) {
    case 0:  // bit flip
      bytes[at] ^= static_cast<uint8_t>(1u << rng.UniformInt(0, 7));
      break;
    case 1:  // byte overwrite
      bytes[at] = static_cast<uint8_t>(rng.NextU32());
      break;
    default:  // truncation
      bytes.resize(at);
      break;
  }
  return bytes;
}

// Restores `mutant` into a fresh system through `load`; on success, resaves it
// through `save` and requires section `name` to come back unchanged.
struct Outcome {
  int rejected = 0;
  int accepted = 0;
};

void ExpectCanonical(const Checkpoint& base, uint64_t seed,
                     const std::function<Status(const Checkpoint&, Checkpoint*)>& reload,
                     Outcome* outcome) {
  Checkpoint unmutated;
  ASSERT_TRUE(reload(base, &unmutated).ok());
  for (const Checkpoint::Section& section : base.sections()) {
    ASSERT_NE(unmutated.Find(section.name), nullptr) << section.name;
    EXPECT_EQ(*unmutated.Find(section.name), section.payload)
        << "section " << section.name << " does not round-trip unmutated";
  }
  Pcg32 rng(seed);
  for (const Checkpoint::Section& section : base.sections()) {
    for (int i = 0; i < kMutationsPerSection; ++i) {
      const std::vector<uint8_t> mutated = Mutate(rng, section.payload);
      if (mutated == section.payload) {
        continue;
      }
      Checkpoint mutant = base;
      mutant.Add(section.name, mutated);
      Checkpoint resaved;
      const Status s = reload(mutant, &resaved);
      if (!s.ok()) {
        ++outcome->rejected;
        continue;
      }
      ++outcome->accepted;
      const std::vector<uint8_t>* again = resaved.Find(section.name);
      ASSERT_NE(again, nullptr) << section.name;
      EXPECT_EQ(*again, mutated) << "section " << section.name << " mutation " << i
                                 << " loaded but resaved differently";
    }
  }
}

DeploymentConfig FuzzDeploymentConfig() {
  DeploymentConfig config;
  config.num_proxies = 2;
  config.sensors_per_proxy = 4;
  config.enable_replication = true;
  config.replication_factor = 2;
  config.lane_engine = true;
  config.sim_threads = 1;
  config.sim_epoch = Millis(500);
  config.seed = 1411;
  return config;
}

QueryDriverParams FuzzDriverParams() {
  QueryDriverParams params;
  params.mix.queries_per_hour = 720.0;
  params.mix.num_sensors = 0;
  params.mix.past_fraction = 0.25;
  params.mix.mean_past_age = Minutes(10);
  params.mix.max_past_age = Minutes(20);
  params.mix.seed = 1412;
  return params;
}

TEST(CheckpointFuzzTest, DeploymentSectionsRejectOrResaveIdentically) {
  Checkpoint base;
  {
    Deployment deployment(FuzzDeploymentConfig());
    deployment.Start();
    deployment.RunUntil(Minutes(30));
    deployment.AttachQueryDriver(FuzzDriverParams()).Start(Minutes(20));
    deployment.RunUntil(Minutes(40));
    ASSERT_TRUE(deployment.SaveCheckpoint(&base).ok());
  }
  Outcome outcome;
  ExpectCanonical(
      base, 1413,
      [](const Checkpoint& ckpt, Checkpoint* resaved) {
        Deployment deployment(FuzzDeploymentConfig());
        deployment.Start();
        deployment.AttachQueryDriver(FuzzDriverParams());
        PRESTO_RETURN_IF_ERROR(deployment.LoadCheckpoint(ckpt));
        return deployment.SaveCheckpoint(resaved);
      },
      &outcome);
  EXPECT_GT(outcome.rejected, 0) << "no mutant was refused: the sweep is vacuous";
  EXPECT_GT(outcome.accepted, 0) << "no mutant loaded: the resave check is vacuous";
}

FederationConfig FuzzFederationConfig() {
  FederationConfig config;
  config.num_cells = 2;
  config.cell.num_proxies = 2;
  config.cell.sensors_per_proxy = 2;
  config.cell.lane_engine = true;
  config.cell.sim_threads = 1;
  config.cell.sim_epoch = Millis(250);
  config.link.latency = Millis(250);
  config.epoch = Seconds(1);
  config.seed = 1421;
  return config;
}

std::vector<QueryDriver*> AttachFuzzDrivers(Federation& fed) {
  std::vector<QueryDriver*> drivers;
  for (int c = 0; c < fed.num_cells(); ++c) {
    QueryDriverParams params = FuzzDriverParams();
    params.mix.queries_per_hour = 1800.0;
    params.mix.seed = 1422 + static_cast<uint64_t>(c);
    drivers.push_back(&fed.AttachQueryDriver(c, params));
  }
  return drivers;
}

TEST(CheckpointFuzzTest, FederationSectionsRejectOrResaveIdentically) {
  Checkpoint full;
  {
    Federation fed(FuzzFederationConfig());
    fed.Start();
    const std::vector<QueryDriver*> drivers = AttachFuzzDrivers(fed);
    fed.RunUntil(Minutes(3));
    for (QueryDriver* driver : drivers) {
      driver->Start(0);
    }
    fed.RunUntil(Minutes(4));
    ASSERT_TRUE(fed.SaveCheckpoint(&full).ok());
  }
  // Mutate the federation's own sections; every cell section rides along intact.
  Checkpoint base;
  for (const Checkpoint::Section& section : full.sections()) {
    if (section.name == "fed" || section.name.find("/fed") != std::string::npos) {
      base.Add(section.name, section.payload);
    }
  }
  ASSERT_EQ(base.sections().size(), 3u) << "expected fed, cell0/fed and cell1/fed";
  Outcome outcome;
  ExpectCanonical(
      base, 1423,
      [&full](const Checkpoint& mutated_sections, Checkpoint* resaved) {
        Checkpoint ckpt = full;
        for (const Checkpoint::Section& section : mutated_sections.sections()) {
          ckpt.Add(section.name, section.payload);
        }
        Federation fed(FuzzFederationConfig());
        fed.Start();
        AttachFuzzDrivers(fed);
        PRESTO_RETURN_IF_ERROR(fed.LoadCheckpoint(ckpt));
        return fed.SaveCheckpoint(resaved);
      },
      &outcome);
  EXPECT_GT(outcome.rejected, 0);
  EXPECT_GT(outcome.accepted, 0);
}

}  // namespace
}  // namespace presto
