// file_replay — dataset-on-disk workflow, like the paper's evaluation: a
// synthetic Wikipedia-edit dataset is written to a file once, then replayed
// through an AggBased pipeline, with the results persisted to another file.
//
//   $ ./file_replay [dataset.csv [results.csv]]
#include <cstdio>
#include <iostream>
#include <string>

#include "aggbased/flatmap.hpp"
#include "core/operators/io.hpp"
#include "core/runtime/threaded_runtime.hpp"
#include "workloads/codecs.hpp"

using namespace aggspes;

int main(int argc, char** argv) {
  const std::string dataset = argc > 1 ? argv[1] : "/tmp/aggspes_edits.csv";
  const std::string results = argc > 2 ? argv[2] : "/tmp/aggspes_words.csv";

  // 1. Materialize the synthetic dataset (one edit every 5 ms for 5 s).
  {
    wiki::WikiGenerator gen(99);
    std::vector<Tuple<wiki::WikiEdit>> edits;
    for (Timestamp ts = 0; ts < 5000; ts += 5) {
      edits.push_back({ts, 0, gen.make(static_cast<std::uint64_t>(ts))});
    }
    Flow flow;
    auto& src = flow.add<TimedSource<wiki::WikiEdit>>(edits, 100, 5200);
    auto& sink = flow.add<FileSink<wiki::WikiEdit>>(dataset,
                                                    wiki::format_edit);
    flow.connect(src.out(), sink.in());
    flow.run();
    std::cout << "dataset:  " << dataset << " (" << sink.written()
              << " edits)\n";
  }

  // 2. Replay through an AggBased FM (long most-frequent words only) and
  //    persist the word stream.
  {
    Flow flow;
    auto& src = flow.add<FileSource<wiki::WikiEdit>>(
        dataset, wiki::parse_edit, /*wm_period=*/100, /*flush_slack=*/200);
    AggBasedFlatMap<wiki::WikiEdit, std::string> long_words(
        flow,
        [](const wiki::WikiEdit& e) {
          std::string w = wiki::most_frequent_word(e.orig);
          return w.size() > 8 ? std::vector<std::string>{std::move(w)}
                              : std::vector<std::string>{};
        },
        /*lateness=*/100);
    auto& sink = flow.add<FileSink<std::string>>(
        results, [](const std::string& w) { return w; });
    flow.connect(src.out(), long_words.in());
    flow.connect(long_words.out(), sink.in());
    flow.run();
    std::cout << "replayed: " << src.tuple_count() << " edits ("
              << src.skipped_lines() << " skipped)\n";
    std::cout << "results:  " << results << " (" << sink.written()
              << " long words)\n";
    if (src.tuple_count() == 0) return 1;
  }
  return 0;
}
