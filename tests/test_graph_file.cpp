// Edge-list loader + mmap'd CSR cache: parsing tolerances (comments,
// blanks, duplicate and reversed edges, sparse 64-bit ids), typed errors
// with line numbers, cache round-trip identity, and stale-cache
// invalidation when the source changes underneath a cache file or the
// cache itself is corrupt or of an older layout.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "experiments/scenario.hpp"
#include "experiments/specs.hpp"
#include "graph/file_graph.hpp"
#include "graph/generators.hpp"
#include "graph/graph.hpp"

namespace rumor {
namespace {

namespace fs = std::filesystem;

std::optional<std::vector<ScenarioSpec>> parse_scenarios(
    const std::string& text, std::string* error = nullptr) {
  std::istringstream in(text);
  return parse_scenario_stream(in, error);
}

// Unique scratch directory per test, removed on teardown so .rcsr caches
// from one test can never satisfy another.
class GraphFileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("rumor_graph_file_" +
            std::to_string(::testing::UnitTest::GetInstance()->random_seed()) +
            "_" + ::testing::UnitTest::GetInstance()
                      ->current_test_info()
                      ->name());
    fs::create_directories(dir_);
  }
  void TearDown() override {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  std::string write_file(const std::string& name, const std::string& text) {
    const fs::path p = dir_ / name;
    std::ofstream out(p);
    out << text;
    return p.string();
  }

  fs::path dir_;
};

void expect_same_structure(const Graph& got, const Graph& want) {
  ASSERT_EQ(got.num_vertices(), want.num_vertices());
  ASSERT_EQ(got.num_edges(), want.num_edges());
  EXPECT_EQ(got.min_degree(), want.min_degree());
  EXPECT_EQ(got.max_degree(), want.max_degree());
  for (Vertex v = 0; v < want.num_vertices(); ++v) {
    ASSERT_EQ(got.degree(v), want.degree(v)) << "v=" << v;
    for (std::uint32_t i = 0; i < want.degree(v); ++i) {
      EXPECT_EQ(got.neighbor(v, i), want.neighbor(v, i)) << "v=" << v;
    }
  }
  for (EdgeId e = 0; e < want.num_edges(); ++e) {
    EXPECT_EQ(got.edge_endpoints(e), want.edge_endpoints(e)) << "e=" << e;
  }
  // Owned and mapped graphs share one layout, so their arrays match too.
  if (!got.is_implicit() && !want.is_implicit()) {
    const CsrView a = got.csr();
    const CsrView b = want.csr();
    for (Vertex v = 0; v <= want.num_vertices(); ++v) {
      EXPECT_EQ(a.offsets[v], b.offsets[v]) << "v=" << v;
      EXPECT_EQ(a.fwd_offsets[v], b.fwd_offsets[v]) << "v=" << v;
    }
  }
  EXPECT_EQ(got.properties().connected, want.properties().connected);
  EXPECT_EQ(got.properties().bipartite, want.properties().bipartite);
}

TEST_F(GraphFileTest, ParsesCommentsBlanksDuplicatesAndReversedEdges) {
  // A messy rendition of the 5-cycle: full-line and trailing comments,
  // blank lines, a duplicate edge, and a reversed duplicate.
  const std::string path = write_file("cycle5.txt",
                                      "# SNAP-style header comment\n"
                                      "\n"
                                      "0 1\n"
                                      "1 2  # trailing comment\n"
                                      "2 3\n"
                                      "3 4\n"
                                      "0 1\n"       // duplicate
                                      "4 3\n"       // reversed duplicate
                                      "\n"
                                      "4 0\n");
  const Graph g = load_file_graph(path);
  EXPECT_EQ(g.backend(), GraphBackend::mapped);
  expect_same_structure(g, gen::cycle(5));
}

TEST_F(GraphFileTest, SparseIdsRemapDenselyInAscendingOrder) {
  // Original ids 7, 100, 42, 2^40 must compact to 0..3 by ascending
  // original id: 7->0, 42->1, 100->2, 2^40->3. Path: 7-42-100-2^40.
  const std::string path = write_file("sparse.txt",
                                      "7 42\n"
                                      "100 42\n"
                                      "1099511627776 100\n");
  const Graph g = load_file_graph(path);
  ASSERT_EQ(g.num_vertices(), 4u);
  ASSERT_EQ(g.num_edges(), 3u);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 2));
  EXPECT_TRUE(g.has_edge(2, 3));
  EXPECT_FALSE(g.has_edge(0, 3));
  EXPECT_EQ(g.degree(0), 1u);
  EXPECT_EQ(g.degree(1), 2u);
}

TEST_F(GraphFileTest, SelfLoopErrorCarriesPathAndLineNumber) {
  const std::string path = write_file("loop.txt",
                                      "# header\n"
                                      "0 1\n"
                                      "2 2\n");
  try {
    (void)load_file_graph(path);
    FAIL() << "expected GraphFileError";
  } catch (const GraphFileError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(path), std::string::npos) << what;
    EXPECT_NE(what.find(":3:"), std::string::npos) << what;
    EXPECT_NE(what.find("self loop"), std::string::npos) << what;
  }
}

TEST_F(GraphFileTest, MissingFileAndEmptyFileAreTypedErrors) {
  EXPECT_THROW((void)load_file_graph((dir_ / "nope.txt").string()),
               GraphFileError);
  const std::string empty = write_file("empty.txt", "# only comments\n\n");
  EXPECT_THROW((void)load_file_graph(empty), GraphFileError);
  EXPECT_THROW((void)probe_file_graph(empty), GraphFileError);
}

TEST_F(GraphFileTest, MalformedLinesAreTypedErrors) {
  EXPECT_THROW((void)load_file_graph(write_file("one_tok.txt", "0\n")),
               GraphFileError);
  EXPECT_THROW((void)load_file_graph(write_file("three_tok.txt", "0 1 2\n")),
               GraphFileError);
  EXPECT_THROW(
      (void)load_file_graph(write_file("alpha.txt", "zero one\n")),
      GraphFileError);
}

TEST_F(GraphFileTest, CacheRoundTripIsStructurallyIdentical) {
  const std::string path = write_file("star.txt",
                                      "0 1\n0 2\n0 3\n0 4\n0 5\n0 6\n");
  const std::string cache = file_graph_cache_path(path);
  ASSERT_FALSE(fs::exists(cache));

  // First load parses the source and writes the cache.
  const Graph first = load_file_graph(path);
  ASSERT_TRUE(fs::exists(cache));
  const FileGraphInfo info = probe_file_graph(path);
  EXPECT_TRUE(info.cache_was_fresh);
  EXPECT_EQ(info.n, 7u);
  EXPECT_EQ(info.m, 6u);
  EXPECT_EQ(info.cache_bytes, fs::file_size(cache));

  // Second load must answer from the cache: swap in a same-size source
  // with different edges (a path, not a star) and restore the mtime so the
  // staleness stamp still matches. A re-parse would yield the path graph;
  // the cache answers with the original star.
  const auto stamp = fs::last_write_time(path);
  write_file("star.txt", "0 1\n1 2\n2 3\n3 4\n4 5\n5 6\n");
  fs::last_write_time(path, stamp);
  const Graph second = load_file_graph(path);
  expect_same_structure(second, first);
  // The mapped arrays are the owned build's, fwd_offsets included.
  const Graph owned = gen::star(6);
  ASSERT_EQ(second.backend(), GraphBackend::mapped);
  ASSERT_EQ(owned.backend(), GraphBackend::owned);
  expect_same_structure(second, owned);
}

TEST_F(GraphFileTest, StaleCacheIsRebuiltWhenSourceChanges) {
  const std::string path = write_file("grow.txt", "0 1\n1 2\n2 0\n");
  const Graph before = load_file_graph(path);
  EXPECT_EQ(before.num_vertices(), 3u);

  // Rewrite the source with a different byte count — the size component of
  // the staleness stamp flips even when mtime granularity is coarse.
  write_file("grow.txt", "0 1\n1 2\n2 3\n3 0\n");
  const FileGraphInfo info = probe_file_graph(path);
  EXPECT_FALSE(info.cache_was_fresh);
  EXPECT_EQ(info.n, 4u);
  EXPECT_EQ(info.m, 4u);
  expect_same_structure(load_file_graph(path), gen::cycle(4));
}

TEST_F(GraphFileTest, CorruptCacheFallsBackToSource) {
  const std::string path = write_file("c.txt", "0 1\n1 2\n2 0\n");
  (void)load_file_graph(path);  // build the cache
  // Truncate the cache to garbage; the loader must detect the bad header
  // and rebuild from the source instead of mapping junk.
  {
    std::ofstream out(file_graph_cache_path(path), std::ios::trunc);
    out << "junk";
  }
  const Graph g = load_file_graph(path);
  expect_same_structure(g, gen::cycle(3));
}

// Raw access to a cache file's bytes and its little-endian header fields
// (the layout table in docs/scenarios.md).
constexpr std::size_t kVersionAt = 8;
constexpr std::size_t kNAt = 32;
constexpr std::size_t kMaxDegreeAt = 40;
constexpr std::size_t kMAt = 48;
constexpr std::size_t kHeaderBytes = 64;

std::vector<char> read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void write_bytes(const std::string& path, const std::vector<char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

template <class T>
T field(const std::vector<char>& bytes, std::size_t at) {
  T value;
  std::memcpy(&value, bytes.data() + at, sizeof(T));
  return value;
}

template <class T>
void set_field(std::vector<char>& bytes, std::size_t at, T value) {
  std::memcpy(bytes.data() + at, &value, sizeof(T));
}

TEST_F(GraphFileTest, HeaderEdgeCountWithAHighBitFlippedIsRebuilt) {
  // Bit 62 of m multiplies out of any size computed mod 2^64; unchecked,
  // the probe (and so --dry-run) would report the huge m and the load
  // would abort.
  const std::string path = write_file("c.txt", "0 1\n1 2\n2 0\n");
  (void)load_file_graph(path);  // build the cache
  const std::string cache = file_graph_cache_path(path);
  std::vector<char> bytes = read_bytes(cache);
  set_field<std::uint64_t>(bytes, kMAt,
                           field<std::uint64_t>(bytes, kMAt) ^ (1ull << 62));
  write_bytes(cache, bytes);

  const FileGraphInfo info = probe_file_graph(path);
  EXPECT_FALSE(info.cache_was_fresh);
  EXPECT_EQ(info.n, 3u);
  EXPECT_EQ(info.m, 3u);
  expect_same_structure(load_file_graph(path), gen::cycle(3));
}

TEST_F(GraphFileTest, HeaderShapeNoEdgeListCanProduceIsRebuilt) {
  // (n, m) = (5, 2) cannot come from a parsed edge list (n > 2m); trusted,
  // it would pass the 3-cycle's arrays off as a 5-vertex graph whose two
  // isolated vertices no trial can inform. Nor can a simple graph have a
  // vertex of degree n.
  const std::string path = write_file("c.txt", "0 1\n1 2\n2 0\n");
  (void)load_file_graph(path);
  const std::string cache = file_graph_cache_path(path);
  const std::vector<char> good = read_bytes(cache);
  std::vector<char> bytes = good;
  set_field<std::uint32_t>(bytes, kNAt, 5);
  set_field<std::uint64_t>(bytes, kMAt, 2);
  write_bytes(cache, bytes);

  const FileGraphInfo info = probe_file_graph(path);
  EXPECT_FALSE(info.cache_was_fresh);
  EXPECT_EQ(info.n, 3u);
  EXPECT_EQ(info.m, 3u);
  expect_same_structure(load_file_graph(path), gen::cycle(3));

  bytes = good;
  set_field<std::uint32_t>(bytes, kMaxDegreeAt, 3);
  write_bytes(cache, bytes);
  EXPECT_FALSE(probe_file_graph(path).cache_was_fresh);
  expect_same_structure(load_file_graph(path), gen::cycle(3));
}

TEST_F(GraphFileTest, BrokenArraySentinelIsRebuilt) {
  // offsets[0] == 0, offsets[n] == 2m and fwd_offsets[n] == m (the last
  // word of the file) hold in every cache the loader writes.
  const std::string path = write_file("c.txt", "0 1\n1 2\n2 0\n");
  (void)load_file_graph(path);
  const std::string cache = file_graph_cache_path(path);
  const std::vector<char> good = read_bytes(cache);
  for (const std::size_t at :
       {kHeaderBytes, kHeaderBytes + 4 * 3, good.size() - 4}) {
    SCOPED_TRACE(at);
    std::vector<char> bytes = good;
    set_field<std::uint32_t>(bytes, at, field<std::uint32_t>(bytes, at) + 1);
    write_bytes(cache, bytes);
    EXPECT_FALSE(probe_file_graph(path).cache_was_fresh);
    expect_same_structure(load_file_graph(path), gen::cycle(3));
  }
}

TEST_F(GraphFileTest, VersionOneCacheIsRebuiltAsVersionTwo) {
  // A version-1 cache stored a per-slot edge id array between neighbors
  // and fwd_offsets. Rewrite this source's cache in that layout, with a
  // matching stamp: it must be rebuilt in the current one.
  const std::string path =
      write_file("k4.txt", "0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n");
  const Graph g = load_file_graph(path);
  const std::string cache = file_graph_cache_path(path);
  std::vector<char> bytes = read_bytes(cache);
  ASSERT_EQ(field<std::uint32_t>(bytes, kVersionAt), 2u);
  const std::size_t n = g.num_vertices();
  const std::size_t m = g.num_edges();
  std::vector<std::pair<Vertex, Vertex>> edges;
  for (EdgeId e = 0; e < m; ++e) edges.push_back(g.edge_endpoints(e));
  std::vector<std::uint32_t> ids;
  for (Vertex v = 0; v < n; ++v) {
    for (std::uint32_t i = 0; i < g.degree(v); ++i) {
      const Vertex w = g.neighbor(v, i);
      ids.push_back(static_cast<std::uint32_t>(
          std::lower_bound(edges.begin(), edges.end(),
                           std::pair{std::min(v, w), std::max(v, w)}) -
          edges.begin()));
    }
  }
  const auto fwd_at = static_cast<std::ptrdiff_t>(kHeaderBytes + 4 * (n + 1) +
                                                  4 * (2 * m));
  const auto* id_bytes = reinterpret_cast<const char*>(ids.data());
  bytes.insert(bytes.begin() + fwd_at, id_bytes, id_bytes + 4 * ids.size());
  set_field<std::uint32_t>(bytes, kVersionAt, 1);
  write_bytes(cache, bytes);

  const FileGraphInfo info = probe_file_graph(path);
  EXPECT_FALSE(info.cache_was_fresh);
  EXPECT_EQ(field<std::uint32_t>(read_bytes(cache), kVersionAt), 2u);
  EXPECT_EQ(info.cache_bytes, fs::file_size(cache));
  expect_same_structure(load_file_graph(path), gen::complete(4));
}

TEST_F(GraphFileTest, SpecGrammarRoundTripsFilePaths) {
  const std::string path = write_file("g.txt", "0 1\n");
  std::string error;
  const auto spec = GraphSpec::parse("file:" + path, &error);
  ASSERT_TRUE(spec.has_value()) << error;
  EXPECT_EQ(spec->family, Family::file);
  EXPECT_EQ(spec->path, path);
  EXPECT_EQ(spec->name(), "file:" + path);

  const auto again = GraphSpec::parse(spec->name(), &error);
  ASSERT_TRUE(again.has_value()) << error;
  EXPECT_EQ(*again, *spec);
  EXPECT_EQ(spec->resolved_backend(), GraphBackend::mapped);
}

TEST_F(GraphFileTest, ScenarioValidationRejectsBadFileBeforeTrials) {
  // Validation must fail with the typed loader message (exit-2 path in the
  // CLI), not crash, and must not leave a cache behind for a bad source.
  const std::string bad = write_file("bad.txt", "5 5\n");
  std::string error;
  auto specs = parse_scenarios("file:" + bad + " push source=0 trials=1\n");
  ASSERT_TRUE(specs.has_value());
  EXPECT_FALSE(validate_scenarios(*specs, &error));
  EXPECT_NE(error.find("self loop"), std::string::npos) << error;
  EXPECT_FALSE(fs::exists(file_graph_cache_path(bad)));
}

TEST_F(GraphFileTest, ScenarioRunOnFileGraphMatchesGeneratedGraph) {
  // A file rendition of star(8) must produce byte-identical trial stats to
  // the generated star(8) under the same seed — the mapped backend's
  // sorted CSR is the same array the owned build makes.
  std::string text;
  for (int leaf = 1; leaf <= 8; ++leaf)
    text += "0 " + std::to_string(leaf) + "\n";
  const std::string path = write_file("star8.txt", text);

  std::string error;
  auto from_file =
      parse_scenarios("file:" + path + " push source=1 trials=6 seed=99\n");
  auto from_gen =
      parse_scenarios("star(leaves=8) push source=1 trials=6 seed=99\n");
  ASSERT_TRUE(from_file.has_value() && from_gen.has_value());

  const auto a = run_scenarios(*from_file, &error);
  ASSERT_TRUE(a.has_value()) << error;
  const auto b = run_scenarios(*from_gen, &error);
  ASSERT_TRUE(b.has_value()) << error;
  EXPECT_EQ(a->front().n, b->front().n);
  EXPECT_EQ(a->front().edges, b->front().edges);
  EXPECT_EQ(a->front().set.rounds, b->front().set.rounds);
}

TEST_F(GraphFileTest, ProbeMatchesMappedGraphMemoryEstimate) {
  const std::string path = write_file("p.txt", "0 1\n1 2\n2 3\n");
  std::string error;
  const auto spec = GraphSpec::parse("file:" + path, &error);
  ASSERT_TRUE(spec.has_value()) << error;
  const auto probe = spec->probe(&error);
  ASSERT_TRUE(probe.has_value()) << error;
  EXPECT_EQ(probe->backend, GraphBackend::mapped);
  EXPECT_EQ(probe->n, 4u);
  EXPECT_EQ(probe->m, 3u);
  EXPECT_FALSE(probe->m_estimated);
  EXPECT_EQ(probe->graph_bytes, fs::file_size(file_graph_cache_path(path)));

  // A nonexistent path reports through *error instead of throwing.
  const auto missing =
      GraphSpec::parse("file:" + (dir_ / "gone.txt").string(), &error);
  ASSERT_TRUE(missing.has_value()) << error;
  EXPECT_FALSE(missing->probe(&error).has_value());
  EXPECT_FALSE(error.empty());
}

}  // namespace
}  // namespace rumor
