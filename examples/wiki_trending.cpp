// wiki_trending — the paper's server-side scenario (§ 6.1): analyse a
// stream of Wikipedia atomic edits with FlatMap-style word-frequency
// analysis, then aggregate trending words over a sliding window.
//
// Pipeline:  edits ──FM(top-3 words)──► A(count per word, 10 s window,
//            sliding every 2 s) ──► egress
//
// The FM stage runs as the paper's AggBased composition — proving that a
// realistic pipeline needs nothing beyond the minimal Aggregate operator —
// and the trending stage is a plain keyed Aggregate.
//
//   $ ./wiki_trending
#include <iomanip>
#include <iostream>
#include <string>
#include <vector>

#include "aggbased/flatmap.hpp"
#include "core/operators/aggregate.hpp"
#include "core/operators/sink.hpp"
#include "core/operators/source.hpp"
#include "core/runtime/threaded_runtime.hpp"
#include "workloads/wiki.hpp"

using namespace aggspes;

int main() {
  // One edit every 10 ms of event time for 30 s; watermarks every 100 ms.
  wiki::WikiGenerator gen(2024);
  std::vector<Tuple<wiki::WikiEdit>> edits;
  for (Timestamp ts = 0; ts < 30000; ts += 10) {
    edits.push_back({ts, 0, gen.make(static_cast<std::uint64_t>(ts))});
  }

  Flow flow;
  auto& src = flow.add<TimedSource<wiki::WikiEdit>>(edits, /*period=*/100,
                                                    /*flush_to=*/42000);

  // Stage 1 — AggBased FM: top-3 words of each edit's original text.
  AggBasedFlatMap<wiki::WikiEdit, std::string> top_words(
      flow,
      [](const wiki::WikiEdit& e) { return wiki::top_k_words(e.orig, 3); },
      /*lateness=*/100);
  flow.connect(src.out(), top_words.in());

  // Stage 2 — word counts over a 10 s window sliding every 2 s, keyed by
  // the word itself; emit only words seen at least 50 times.
  struct Trend {
    std::string word;
    int count;
  };
  auto& trending = flow.add<AggregateOp<std::string, Trend, std::string>>(
      WindowSpec{.advance = 2000, .size = 10000},
      [](const std::string& w) { return w; },
      [](const WindowView<std::string, std::string>& w)
          -> std::optional<Trend> {
        const int n = static_cast<int>(w.items.size());
        if (n < 50) return std::nullopt;
        return Trend{w.key, n};
      });
  flow.connect(top_words.out(), trending.in());

  auto& sink = flow.add<CollectorSink<Trend>>();
  flow.connect(trending.out(), sink.in());

  flow.run();

  std::cout << "edits analysed:   " << edits.size() << "\n";
  std::cout << "trending reports: " << sink.tuples().size() << "\n\n";
  Timestamp current = -1;
  int shown = 0;
  for (const auto& t : sink.tuples()) {
    if (t.ts != current) {
      current = t.ts;
      shown = 0;
      std::cout << "window ending at t=" << std::setw(6) << t.ts << ":\n";
    }
    if (++shown <= 3) {
      std::cout << "   " << std::setw(4) << t.value.count << "x  "
                << t.value.word << "\n";
    }
  }
  return sink.ended() ? 0 : 1;
}
