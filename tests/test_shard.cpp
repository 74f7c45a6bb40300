// Unit tests: the process-level sharding layer — ShardPlan partitioning
// properties, K/N and strategy parsing, SMT_BENCH_SEEDS env hardening, grid
// fingerprints, fragment serialization, merge_shards validation, the
// TrajectoryStore's transparent fragment merging, and the golden
// determinism contract: a merged sharded run is byte-identical to the
// single-process run across worker counts and shard counts.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <stdexcept>

#include "analysis/trajectory.hpp"
#include "common/env.hpp"
#include "engine/experiment_engine.hpp"
#include "engine/grid_registry.hpp"
#include "engine/result_store.hpp"
#include "engine/run_spec.hpp"
#include "engine/shard.hpp"
#include "sim/workload.hpp"

namespace dwarn {
namespace {

// ---- ShardPlan ---------------------------------------------------------------

void expect_partition(std::size_t grid_size, std::size_t count, ShardStrategy strategy) {
  const ShardPlan plan = ShardPlan::make(grid_size, count, strategy);
  std::vector<bool> seen(grid_size, false);
  for (std::size_t k = 1; k <= count; ++k) {
    const auto idx = plan.indices(k);
    EXPECT_EQ(idx.size(), plan.size(k));
    for (std::size_t i = 0; i < idx.size(); ++i) {
      ASSERT_LT(idx[i], grid_size);
      EXPECT_FALSE(seen[idx[i]]) << "index " << idx[i] << " assigned twice";
      seen[idx[i]] = true;
      if (i > 0) EXPECT_LT(idx[i - 1], idx[i]) << "indices not ascending";
    }
  }
  for (std::size_t i = 0; i < grid_size; ++i) {
    EXPECT_TRUE(seen[i]) << "index " << i << " unassigned";
  }
}

TEST(ShardPlan, EveryShapeIsADisjointExhaustivePartition) {
  for (const ShardStrategy s : {ShardStrategy::Contiguous, ShardStrategy::Strided}) {
    for (const std::size_t grid : {0u, 1u, 2u, 7u, 12u, 144u}) {
      for (const std::size_t count : {1u, 2u, 3u, 5u, 7u, 144u, 200u}) {
        expect_partition(grid, count, s);
      }
    }
  }
}

TEST(ShardPlan, ContiguousBlocksAreBalancedAndOrdered) {
  const ShardPlan plan = ShardPlan::make(7, 3, ShardStrategy::Contiguous);
  EXPECT_EQ(plan.indices(1), (std::vector<std::size_t>{0, 1, 2}));
  EXPECT_EQ(plan.indices(2), (std::vector<std::size_t>{3, 4}));
  EXPECT_EQ(plan.indices(3), (std::vector<std::size_t>{5, 6}));
}

TEST(ShardPlan, StridedRoundRobins) {
  const ShardPlan plan = ShardPlan::make(7, 3, ShardStrategy::Strided);
  EXPECT_EQ(plan.indices(1), (std::vector<std::size_t>{0, 3, 6}));
  EXPECT_EQ(plan.indices(2), (std::vector<std::size_t>{1, 4}));
  EXPECT_EQ(plan.indices(3), (std::vector<std::size_t>{2, 5}));
}

TEST(ShardPlan, MoreShardsThanRunsLeavesTrailingShardsEmpty) {
  const ShardPlan plan = ShardPlan::make(2, 4, ShardStrategy::Contiguous);
  EXPECT_EQ(plan.size(1), 1u);
  EXPECT_EQ(plan.size(2), 1u);
  EXPECT_EQ(plan.size(3), 0u);
  EXPECT_TRUE(plan.indices(4).empty());
}

// ---- shard spec / env parsing hardening ------------------------------------

TEST(ShardSpecParse, AcceptsStrictKOverN) {
  EXPECT_EQ(parse_shard("1/1"), (ShardSpec{1, 1}));
  EXPECT_EQ(parse_shard("2/3"), (ShardSpec{2, 3}));
  EXPECT_EQ(parse_shard("16/16"), (ShardSpec{16, 16}));
}

TEST(ShardSpecParse, ParseDecimalSizeIsStrict) {
  EXPECT_EQ(parse_decimal_size("8", 64), 8u);
  EXPECT_EQ(parse_decimal_size("64", 64), 64u);
  EXPECT_EQ(parse_decimal_size("0", 64), 0u);
  for (const char* bad : {"", "65", "8/2", "1e2", " 8", "+8", "-8", "8.0",
                          "9999999999999999"}) {
    EXPECT_FALSE(parse_decimal_size(bad, 64).has_value()) << "'" << bad << "'";
  }
}

TEST(ShardSpecParse, RejectsZeroNegativeAndMalformed) {
  for (const char* bad : {"", "/", "1/", "/4", "0/4", "5/4", "-1/4", "1/-4", "1/0",
                          "0/0", "a/b", "1/b", "1.5/4", "1 /4", "1/ 4", "+1/4",
                          "1/4/2", "4", "999999999999999999999/4", "1/999999999999"}) {
    EXPECT_FALSE(parse_shard(bad).has_value()) << "accepted '" << bad << "'";
  }
}

TEST(ShardSpecParse, StrategyNamesAreStrict) {
  EXPECT_EQ(shard_strategy_from_name("contiguous"), ShardStrategy::Contiguous);
  EXPECT_EQ(shard_strategy_from_name("strided"), ShardStrategy::Strided);
  for (const char* bad : {"", "zigzag", "Strided", "strided "}) {
    EXPECT_FALSE(shard_strategy_from_name(bad).has_value()) << "'" << bad << "'";
  }
}

TEST(SeedsEnv, ZeroNegativeAndMalformedSeedCountsFallBack) {
  // SMT_BENCH_SEEDS goes through env_u64(name, 1, 64): zero is out of
  // range, negatives and garbage are non-numeric — all warn + nullopt so
  // bench_seed_count() keeps its single-seed default.
  for (const char* bad : {"0", "-3", "abc", "3.5", "65", " 4", ""}) {
    ASSERT_EQ(setenv("SMT_BENCH_SEEDS_TEST", bad, 1), 0);
    EXPECT_FALSE(env_u64("SMT_BENCH_SEEDS_TEST", 1, 64).has_value()) << "'" << bad << "'";
  }
  ASSERT_EQ(setenv("SMT_BENCH_SEEDS_TEST", "8", 1), 0);
  EXPECT_EQ(env_u64("SMT_BENCH_SEEDS_TEST", 1, 64), 8u);
  ASSERT_EQ(unsetenv("SMT_BENCH_SEEDS_TEST"), 0);
}

// ---- grid fingerprint --------------------------------------------------------

TEST(GridFingerprint, StableForIdenticalGridsSensitiveToChanges) {
  const GridOptions two_seeds{.num_seeds = 2};
  const std::string base = grid_fingerprint(named_grid("fixture").expand());
  EXPECT_EQ(base, grid_fingerprint(named_grid("fixture").expand()));
  EXPECT_NE(base, grid_fingerprint(named_grid("fixture", two_seeds).expand()));

  RunGrid longer = named_grid("fixture");
  RunLength len;
  len.warmup_insts = 500;
  len.measure_insts = 4000;
  longer.length(len);
  EXPECT_NE(base, grid_fingerprint(longer.expand()));
}

// ---- fragment round trip and merge validation --------------------------------

/// Serialize one shard of `specs` (already-run `full` results) as a
/// fragment Snapshot, through actual JSON text.
analysis::Snapshot fragment_of(const std::vector<RunSpec>& specs, const ResultSet& full,
                               std::size_t k, std::size_t n, ShardStrategy strategy) {
  const ShardPlan plan = ShardPlan::make(specs.size(), n, strategy);
  ShardHeader header;
  header.index = k;
  header.count = n;
  header.grid_size = specs.size();
  header.strategy = strategy;
  header.fingerprint = grid_fingerprint(specs);
  header.indices = plan.indices(k);

  ResultStore store;
  for (const auto& [key, v] : bench_meta("fixture", specs.front().len)) {
    store.set_meta(key, v);
  }
  store.set_shard(header);
  store.set_zero_wall(true);
  for (const std::size_t i : header.indices) store.add(full.records()[i]);
  return analysis::load_snapshot_text(store.to_json());
}

class ShardMergeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    specs_ = named_grid("fixture").expand();
    full_ = ExperimentEngine().run(specs_);
  }

  [[nodiscard]] std::string canonical_json() const {
    ResultStore store;
    for (const auto& [k, v] : bench_meta("fixture", specs_.front().len)) {
      store.set_meta(k, v);
    }
    store.set_zero_wall(true);
    store.add_all(full_);
    return store.to_json();
  }

  std::vector<RunSpec> specs_;
  ResultSet full_;
};

TEST_F(ShardMergeTest, MergedShardedRunIsByteIdenticalToSingleProcessRun) {
  // The tentpole contract, exercised across worker counts and shard
  // counts: SMT_SIM_WORKERS ∈ {1, 4} × shards ∈ {1, 2, 3}, contiguous
  // and strided, all byte-identical to the canonical snapshot.
  const std::string golden = canonical_json();
  for (const std::size_t workers : {1u, 4u}) {
    const ResultSet rerun = ExperimentEngine(ThreadPool::shared(), workers).run(specs_);
    for (const ShardStrategy strategy :
         {ShardStrategy::Contiguous, ShardStrategy::Strided}) {
      for (const std::size_t shards : {1u, 2u, 3u}) {
        std::vector<analysis::Snapshot> fragments;
        for (std::size_t k = 1; k <= shards; ++k) {
          fragments.push_back(fragment_of(specs_, rerun, k, shards, strategy));
        }
        const analysis::Snapshot merged = analysis::merge_shards(fragments);
        EXPECT_EQ(analysis::to_result_store(merged).to_json(), golden)
            << "workers=" << workers << " shards=" << shards << " strategy="
            << to_string(strategy);
      }
    }
  }
}

TEST_F(ShardMergeTest, FragmentOrderDoesNotMatter) {
  std::vector<analysis::Snapshot> fragments;
  for (const std::size_t k : {3u, 1u, 2u}) {
    fragments.push_back(fragment_of(specs_, full_, k, 3, ShardStrategy::Contiguous));
  }
  EXPECT_EQ(analysis::to_result_store(analysis::merge_shards(fragments)).to_json(),
            canonical_json());
}

TEST_F(ShardMergeTest, RefusesDuplicateFragments) {
  std::vector<analysis::Snapshot> fragments;
  for (const std::size_t k : {1u, 2u, 1u}) {
    fragments.push_back(fragment_of(specs_, full_, k, 2, ShardStrategy::Contiguous));
  }
  EXPECT_THROW((void)analysis::merge_shards(fragments), std::runtime_error);
}

TEST_F(ShardMergeTest, RefusesMissingFragments) {
  std::vector<analysis::Snapshot> fragments;
  fragments.push_back(fragment_of(specs_, full_, 1, 3, ShardStrategy::Contiguous));
  fragments.push_back(fragment_of(specs_, full_, 3, 3, ShardStrategy::Contiguous));
  try {
    (void)analysis::merge_shards(fragments);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("uncovered"), std::string::npos) << e.what();
  }
}

TEST_F(ShardMergeTest, RefusesMismatchedFingerprints) {
  std::vector<analysis::Snapshot> fragments;
  fragments.push_back(fragment_of(specs_, full_, 1, 2, ShardStrategy::Contiguous));
  fragments.push_back(fragment_of(specs_, full_, 2, 2, ShardStrategy::Contiguous));
  fragments[1].shard->fingerprint = "0000000000000000";
  try {
    (void)analysis::merge_shards(fragments);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("fingerprint"), std::string::npos) << e.what();
  }
}

TEST_F(ShardMergeTest, RefusesMismatchedShardCountsAndMeta) {
  std::vector<analysis::Snapshot> a;
  a.push_back(fragment_of(specs_, full_, 1, 2, ShardStrategy::Contiguous));
  a.push_back(fragment_of(specs_, full_, 2, 3, ShardStrategy::Contiguous));
  EXPECT_THROW((void)analysis::merge_shards(a), std::runtime_error);

  std::vector<analysis::Snapshot> b;
  b.push_back(fragment_of(specs_, full_, 1, 2, ShardStrategy::Contiguous));
  b.push_back(fragment_of(specs_, full_, 2, 2, ShardStrategy::Contiguous));
  b[1].meta["measure_insts"] = "999";
  EXPECT_THROW((void)analysis::merge_shards(b), std::runtime_error);
}

TEST_F(ShardMergeTest, RefusesNonFragmentInputsAndEmptyLists) {
  EXPECT_THROW((void)analysis::merge_shards({}), std::runtime_error);
  analysis::Snapshot plain = analysis::load_snapshot_text(canonical_json());
  EXPECT_FALSE(plain.shard.has_value());
  EXPECT_THROW((void)analysis::merge_shards({plain}), std::runtime_error);
}

TEST_F(ShardMergeTest, FragmentHeaderSurvivesSerializationRoundTrip) {
  const analysis::Snapshot frag =
      fragment_of(specs_, full_, 2, 3, ShardStrategy::Strided);
  ASSERT_TRUE(frag.shard.has_value());
  EXPECT_EQ(frag.shard->index, 2u);
  EXPECT_EQ(frag.shard->count, 3u);
  EXPECT_EQ(frag.shard->grid_size, specs_.size());
  EXPECT_EQ(frag.shard->strategy, ShardStrategy::Strided);
  EXPECT_EQ(frag.shard->fingerprint, grid_fingerprint(specs_));
  EXPECT_EQ(frag.shard->indices,
            ShardPlan::make(specs_.size(), 3, ShardStrategy::Strided).indices(2));
}

TEST(ShardHeaderParse, RejectsNegativeFractionalAndOversizedFields) {
  const auto doc = [](const std::string& shard) {
    return "{\"shard\": " + shard +
           ", \"meta\": {\"bench\": \"x\"}, \"runs\": []}";
  };
  const std::string ok =
      R"({"index": 1, "count": 1, "grid_size": 0, "strategy": "contiguous",
          "grid_fingerprint": "00", "indices": []})";
  EXPECT_TRUE(analysis::load_snapshot_text(doc(ok)).shard.has_value());
  for (const char* bad : {
           R"({"index": -1, "count": 1, "grid_size": 0, "strategy": "contiguous",
               "grid_fingerprint": "00", "indices": []})",
           R"({"index": 1, "count": 1, "grid_size": -1, "strategy": "contiguous",
               "grid_fingerprint": "00", "indices": []})",
           R"({"index": 1, "count": 1, "grid_size": 1e18, "strategy": "contiguous",
               "grid_fingerprint": "00", "indices": []})",
           R"({"index": 1.5, "count": 2, "grid_size": 0, "strategy": "contiguous",
               "grid_fingerprint": "00", "indices": []})",
           R"({"index": 1, "count": 1, "grid_size": 4, "strategy": "zigzag",
               "grid_fingerprint": "00", "indices": []})",
       }) {
    EXPECT_THROW((void)analysis::load_snapshot_text(doc(bad)), std::runtime_error)
        << bad;
  }
}

TEST_F(ShardMergeTest, RefusesIndexRunCountMismatchOnProgrammaticSnapshots) {
  std::vector<analysis::Snapshot> fragments;
  fragments.push_back(fragment_of(specs_, full_, 1, 2, ShardStrategy::Contiguous));
  fragments.push_back(fragment_of(specs_, full_, 2, 2, ShardStrategy::Contiguous));
  fragments[1].runs.pop_back();  // indices now outnumber runs
  EXPECT_THROW((void)analysis::merge_shards(fragments), std::runtime_error);
}

// ---- TrajectoryStore transparent fragment loading ----------------------------

TEST_F(ShardMergeTest, TrajectoryStoreMergesFragmentsTransparently) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / "dwarn_shard_store_test").string();
  std::filesystem::remove_all(dir);
  ASSERT_TRUE(std::filesystem::create_directories(dir));

  for (std::size_t k = 1; k <= 2; ++k) {
    const analysis::Snapshot frag =
        fragment_of(specs_, full_, k, 2, ShardStrategy::Contiguous);
    std::ofstream out(dir + "/" + shard_fragment_filename("fixture", k, 2),
                      std::ios::binary);
    out << analysis::to_result_store(frag).to_json();
  }

  const analysis::TrajectoryStore store(dir);
  EXPECT_EQ(store.list(), std::vector<std::string>{"fixture"});
  EXPECT_EQ(store.fragment_paths("fixture").size(), 2u);
  const analysis::Snapshot merged = store.load("fixture");
  EXPECT_FALSE(merged.shard.has_value());
  EXPECT_EQ(analysis::to_result_store(merged).to_json(), canonical_json());

  // A canonical file, when present, wins over fragments.
  {
    std::ofstream out(dir + "/BENCH_fixture.json", std::ios::binary);
    out << canonical_json();
  }
  EXPECT_EQ(analysis::to_result_store(store.load("fixture")).to_json(), canonical_json());

  std::filesystem::remove_all(dir);
}

TEST_F(ShardMergeTest, TrajectoryStoreRefusesMixedShardCountsOfOneBench) {
  // Fragments from a 2-way and a 3-way split of the same bench in one
  // directory (e.g. two sweeps into the same out-dir): load() must refuse
  // — mixing splits could double-count or drop grid indices — and the
  // error must say why.
  const std::string dir =
      (std::filesystem::temp_directory_path() / "dwarn_shard_mixed_counts").string();
  std::filesystem::remove_all(dir);
  ASSERT_TRUE(std::filesystem::create_directories(dir));

  for (std::size_t k = 1; k <= 2; ++k) {
    const analysis::Snapshot frag =
        fragment_of(specs_, full_, k, 2, ShardStrategy::Contiguous);
    std::ofstream out(dir + "/" + shard_fragment_filename("fixture", k, 2),
                      std::ios::binary);
    out << analysis::to_result_store(frag).to_json();
  }
  {
    const analysis::Snapshot frag =
        fragment_of(specs_, full_, 1, 3, ShardStrategy::Contiguous);
    std::ofstream out(dir + "/" + shard_fragment_filename("fixture", 1, 3),
                      std::ios::binary);
    out << analysis::to_result_store(frag).to_json();
  }

  const analysis::TrajectoryStore store(dir);
  EXPECT_EQ(store.fragment_paths("fixture").size(), 3u);
  try {
    (void)store.load("fixture");
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("shard counts"), std::string::npos) << e.what();
  }
  std::filesystem::remove_all(dir);
}

// ---- trace_cache.* meta across a merge ---------------------------------------

TEST_F(ShardMergeTest, MergeSumsPerWorkerTraceCacheMetaAndKeepsSharedMetaStrict) {
  std::vector<analysis::Snapshot> fragments;
  for (const std::size_t k : {1u, 2u}) {
    fragments.push_back(fragment_of(specs_, full_, k, 2, ShardStrategy::Contiguous));
  }
  // Each worker reports its own cache traffic; the merged snapshot must
  // carry the whole-sweep totals, and the differing per-worker values
  // must not trip the meta-equality check.
  fragments[0].meta["trace_cache.hits"] = "10";
  fragments[0].meta["trace_cache.misses"] = "4";
  fragments[1].meta["trace_cache.hits"] = "7";

  const analysis::Snapshot merged = analysis::merge_shards(fragments);
  EXPECT_EQ(merged.meta.at("trace_cache.hits"), "17");
  EXPECT_EQ(merged.meta.at("trace_cache.misses"), "4");  // absent counts as 0
  EXPECT_EQ(merged.meta.at("bench"), "fixture");

  // Still strict about genuinely shared meta...
  fragments[1].meta["measure_insts"] = "999";
  EXPECT_THROW((void)analysis::merge_shards(fragments), std::runtime_error);
  fragments[1].meta["measure_insts"] = fragments[0].meta.at("measure_insts");
  // ...and about counters that are not counters.
  fragments[1].meta["trace_cache.hits"] = "not-a-number";
  EXPECT_THROW((void)analysis::merge_shards(fragments), std::runtime_error);
}

TEST(TrajectoryStoreList, IgnoresNonFragmentShardLookalikes) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / "dwarn_shard_list_test").string();
  std::filesystem::remove_all(dir);
  ASSERT_TRUE(std::filesystem::create_directories(dir));
  for (const char* name :
       {"BENCH_a.json", "BENCH_b.shard1of2.json", "BENCH_b.shard2of2.json",
        "BENCH_c.shardXofY.json", "NOTBENCH_d.json", "BENCH_e.shard1of.json"}) {
    std::ofstream out(dir + "/" + std::string(name));
    out << "{}";
  }
  const analysis::TrajectoryStore store(dir);
  // "c", "e": malformed shard suffixes are not benches; "a" canonical,
  // "b" fragment-only.
  EXPECT_EQ(store.list(), (std::vector<std::string>{"a", "b"}));
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace dwarn
