// Thread pool, CSV, and table formatter tests.
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <sstream>
#include <vector>

#include "support/csv.hpp"
#include "support/table.hpp"
#include "support/thread_pool.hpp"

namespace rumor {
namespace {

TEST(ThreadPool, RunsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(1000, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, HandlesZeroAndOne) {
  ThreadPool pool(2);
  int calls = 0;
  pool.parallel_for(0, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  pool.parallel_for(1, [&](std::size_t i) {
    EXPECT_EQ(i, 0u);
    ++calls;
  });
  EXPECT_EQ(calls, 1);
}

TEST(ThreadPool, MoreTasksThanWorkers) {
  ThreadPool pool(2);
  std::atomic<std::size_t> sum{0};
  pool.parallel_for(500, [&](std::size_t i) { sum.fetch_add(i); });
  EXPECT_EQ(sum.load(), 500u * 499u / 2);
}

TEST(ThreadPool, ReusableAcrossCalls) {
  ThreadPool pool(3);
  for (int round = 0; round < 20; ++round) {
    std::atomic<int> count{0};
    pool.parallel_for(50, [&](std::size_t) { count.fetch_add(1); });
    EXPECT_EQ(count.load(), 50);
  }
}

TEST(ThreadPool, SingleWorkerFallsBackToSerial) {
  ThreadPool pool(1);
  std::vector<int> order;
  pool.parallel_for(10, [&](std::size_t i) {
    order.push_back(static_cast<int>(i));
  });
  std::vector<int> expected(10);
  std::iota(expected.begin(), expected.end(), 0);
  EXPECT_EQ(order, expected);  // serial path preserves order
}

TEST(Csv, EscapesSpecials) {
  EXPECT_EQ(CsvWriter::escape("plain"), "plain");
  EXPECT_EQ(CsvWriter::escape("a,b"), "\"a,b\"");
  EXPECT_EQ(CsvWriter::escape("say \"hi\""), "\"say \"\"hi\"\"\"");
  EXPECT_EQ(CsvWriter::escape("line\nbreak"), "\"line\nbreak\"");
}

TEST(Csv, WritesHeaderAndRows) {
  std::ostringstream out;
  CsvWriter csv(out, {"n", "protocol", "rounds"});
  csv.row({"100", "push", "42"});
  csv.row({"200", "push,pull", "17"});
  EXPECT_EQ(out.str(),
            "n,protocol,rounds\n100,push,42\n200,\"push,pull\",17\n");
  EXPECT_EQ(csv.rows_written(), 2u);
  EXPECT_EQ(csv.columns(), 3u);
}

TEST(Table, PlainAlignsColumns) {
  TextTable t({"name", "value"});
  t.add_row({"x", "1"});
  t.add_row({"longer", "23"});
  const std::string rendered = t.render_plain();
  EXPECT_NE(rendered.find("name"), std::string::npos);
  EXPECT_NE(rendered.find("longer"), std::string::npos);
  // All lines equal width for the header+separator at least.
  EXPECT_EQ(t.row_count(), 2u);
}

TEST(Table, NumFormatting) {
  EXPECT_EQ(TextTable::num(3.14159, 2), "3.14");
  EXPECT_EQ(TextTable::num(3.14159, 0), "3");
  EXPECT_EQ(TextTable::num(std::uint64_t{12345}), "12345");
}

}  // namespace
}  // namespace rumor
