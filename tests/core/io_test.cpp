// Tests for the file ingress/egress operators and the workload codecs.
#include "core/operators/io.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "core/operators/sink.hpp"
#include "core/operators/stateless.hpp"
#include "core/runtime/threaded_runtime.hpp"
#include "workloads/codecs.hpp"

namespace aggspes {
namespace {

class TempFile {
 public:
  explicit TempFile(const std::string& stem) {
    path_ = (std::filesystem::temp_directory_path() /
             (stem + std::to_string(reinterpret_cast<uintptr_t>(this)) +
              ".csv"))
                .string();
  }
  ~TempFile() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

std::optional<int> parse_int(const std::vector<std::string>& f) {
  if (f.size() != 1) return std::nullopt;
  try {
    return std::stoi(f[0]);
  } catch (...) {
    return std::nullopt;
  }
}

TEST(SplitFields, BasicAndTrailingDelimiter) {
  EXPECT_EQ(split_fields("a,b,c"), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(split_fields("a,,c").size(), 3u);
  EXPECT_EQ(split_fields("a,"), (std::vector<std::string>{"a", ""}));
  EXPECT_TRUE(split_fields("").empty());
}

TEST(FileRoundTrip, SinkThenSourceRestoresStream) {
  TempFile f("roundtrip");
  {
    Flow flow;
    auto& src = flow.add<ScriptSource<int>>(std::vector<Element<int>>{
        Tuple<int>{1, 0, 10}, Tuple<int>{3, 0, 20}, Tuple<int>{3, 0, 30},
        Watermark{5}, EndOfStream{}});
    auto& sink = flow.add<FileSink<int>>(
        f.path(), [](const int& v) { return std::to_string(v); });
    flow.connect(src.out(), sink.in());
    flow.run();
    EXPECT_EQ(sink.written(), 3u);
  }
  {
    Flow flow;
    auto& src = flow.add<FileSource<int>>(f.path(), parse_int,
                                          /*wm_period=*/2);
    auto& sink = flow.add<CollectorSink<int>>();
    flow.connect(src.out(), sink.in());
    flow.run();
    EXPECT_EQ(src.tuple_count(), 3u);
    ASSERT_EQ(sink.tuples().size(), 3u);
    EXPECT_EQ(sink.tuples()[0], (Tuple<int>{1, 0, 10}));
    EXPECT_EQ(sink.tuples()[2], (Tuple<int>{3, 0, 30}));
    EXPECT_TRUE(sink.ended());
    EXPECT_EQ(sink.late_tuples(), 0);
  }
}

TEST(FileSource, SkipsMalformedLinesAndCountsThem) {
  TempFile f("malformed");
  {
    std::ofstream out(f.path());
    out << "1,10\nnot-a-timestamp,20\n2,not-an-int\n3,30\n\n";
  }
  Flow flow;
  auto& src = flow.add<FileSource<int>>(f.path(), parse_int, 2);
  auto& sink = flow.add<CollectorSink<int>>();
  flow.connect(src.out(), sink.in());
  flow.run();
  EXPECT_EQ(src.tuple_count(), 2u);
  EXPECT_EQ(src.skipped_lines(), 2u);
}

TEST(FileSource, RejectsOutOfOrderTimestamps) {
  TempFile f("ooo");
  {
    std::ofstream out(f.path());
    out << "5,10\n3,20\n";
  }
  EXPECT_THROW(
      read_tuples<int>(f.path(),
                       [](const std::vector<std::string>& x) {
                         return parse_int(x);
                       }),
      std::runtime_error);
}

TEST(FileSource, MissingFileThrows) {
  EXPECT_THROW(read_tuples<int>("/nonexistent/nope.csv",
                                [](const std::vector<std::string>& x) {
                                  return parse_int(x);
                                }),
               std::runtime_error);
}

TEST(WikiCodec, RoundTrips) {
  wiki::WikiGenerator gen(3);
  for (std::uint64_t i = 0; i < 20; ++i) {
    wiki::WikiEdit e = gen.make(i);
    auto parsed = wiki::parse_edit({wiki::format_edit(e)});
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, e);
  }
}

TEST(WikiCodec, RejectsMalformed) {
  EXPECT_FALSE(wiki::parse_edit({"no separators here"}).has_value());
  EXPECT_FALSE(wiki::parse_edit({"one|separator"}).has_value());
  EXPECT_FALSE(wiki::parse_edit({}).has_value());
}

TEST(ScanCodec, RoundTripsWithinPrecision) {
  scans::ScanGenerator gen(4);
  scans::Scan2D s = gen.make(7);
  auto parsed = scans::parse_scan({scans::format_scan(s)});
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->id, s.id);
  ASSERT_EQ(parsed->dist.size(), s.dist.size());
  for (std::size_t i = 0; i < s.dist.size(); ++i) {
    EXPECT_NEAR(parsed->dist[i], s.dist[i], 1e-6);
  }
}

TEST(ScanCodec, RejectsMalformed) {
  EXPECT_FALSE(scans::parse_scan({"justanid"}).has_value());
  EXPECT_FALSE(scans::parse_scan({"x;1.0"}).has_value());
  EXPECT_FALSE(scans::parse_scan({}).has_value());
}

TEST(FilePipeline, ReplayThroughOperatorToFile) {
  TempFile in_file("pipeline_in"), out_file("pipeline_out");
  {
    std::ofstream out(in_file.path());
    for (int i = 0; i < 10; ++i) out << i << "," << i * 2 << "\n";
  }
  Flow flow;
  auto& src = flow.add<FileSource<int>>(in_file.path(), parse_int, 3);
  auto& fm = flow.add<FlatMapOp<int, int>>([](const int& v) {
    return v % 4 == 0 ? std::vector<int>{v} : std::vector<int>{};
  });
  auto& sink = flow.add<FileSink<int>>(
      out_file.path(), [](const int& v) { return std::to_string(v); });
  flow.connect(src.out(), fm.in());
  flow.connect(fm.out(), sink.in());
  flow.run();
  // Values 0,2,4,...,18: multiples of 4 are 0,4,8,12,16 -> 5 lines.
  EXPECT_EQ(sink.written(), 5u);
}

}  // namespace
}  // namespace aggspes
